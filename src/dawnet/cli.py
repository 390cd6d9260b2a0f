"""Command-line pipeline: gen-data, train, eval, ablate.

Every command seeds all randomness from --seed, records content digests of
the files it reads and writes in a manifest, and keeps wall-clock values
inside the manifest's "volatile" block so that re-runs with identical flags
produce byte-identical artifacts apart from that block.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import datafile
from . import evaluation as ev
from . import simulate as sim
from . import training as tr
from .errors import (ConfigError, DawnetError, FormatError, GenerationError,
                     NumericalError, ShapeError)
from .model import DualDomainAutoencoder, ModelConfig

PRESETS = {
    "desk": (2000, 256, 200),
    "paper": (11509, 1302, 2235),
}

# CLI spelling -> model ablation identifier, in ablation-table row order
ABLATION_FLAGS = {
    "full": "full",
    "no-attn": "no_mutual_attention",
    "no-wavelet": "no_wavelet_loss",
    "vanilla": "vanilla",
}


def _artifact_digest(path, canonical_json: bool) -> str:
    """Digest over stable content.

    A JSON report is digested over its canonical form with any top-level
    "volatile" block removed, so identical-seed runs record identical
    digests; every other file, whatever its name, over its raw bytes.
    """
    path = Path(path)
    if canonical_json:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(doc, dict):
            doc.pop("volatile", None)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digests(paths: dict) -> dict:
    """The manifest record of named files, each read once; a report is
    recorded under a name that ends in ``report.json``."""
    return {name: {"path": str(Path(p)),
                   "sha256": _artifact_digest(p, name.endswith("report.json"))}
            for name, p in paths.items()}


def _write_manifest(path, args, inputs: dict, outputs: dict,
                    volatile: dict) -> dict:
    """Write and return a command's manifest: the flags argparse parsed,
    the digests of its ``inputs`` (taken before it ran) and of its
    ``outputs`` (taken now, after they were written)."""
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "digest_policy": "report.json: canonical form minus volatile "
                         "block; other files: raw bytes",
        "flags": {k: v for k, v in vars(args).items()
                  if k not in ("command", "func")},
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "outputs": _digests(outputs),
        "volatile": {**volatile,
                     "timestamp_utc": datetime.now(timezone.utc).isoformat()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _parse_scales(text: str) -> tuple:
    try:
        scales = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--scales expects comma-separated integers, "
                          f"got {text!r}")
    return scales


# --- gen-data -----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    # a count no flag gave comes from the preset, and the manifest records it
    for name, default in zip(("train", "val", "test_per_class"),
                             PRESETS[args.preset]):
        if getattr(args, name) is None:
            setattr(args, name, default)
    counts = (args.train, args.val, args.test_per_class)
    # refused before any candidate is drawn; the test split holds both classes
    for flag, split_len in (("--train", counts[0]), ("--val", counts[1]),
                            ("--test-per-class", 2 * counts[2])):
        if split_len > datafile.MAX_SPLIT_LEN:
            raise ConfigError(
                f"{flag} asks for a split of {split_len} snapshots; a "
                f"dataset file stores at most {datafile.MAX_SPLIT_LEN}")
    t0 = time.perf_counter()
    bundle = sim.generate_dataset(args.seed, counts)
    elapsed = time.perf_counter() - t0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datafile.write_dataset(out, bundle)
    manifest = _write_manifest(out.with_name(out.name + ".manifest.json"),
                               args, inputs={}, outputs={"dataset": out},
                               volatile={"elapsed_s": elapsed})
    print(f"wrote {counts[0]} train / {counts[1]} val / "
          f"{counts[2]}+{counts[2]} test snapshots to {out}")
    print(f"sha256 {manifest['outputs']['dataset']['sha256']}")
    return 0


# --- train --------------------------------------------------------------------

def _train_config(args) -> tr.TrainConfig:
    return tr.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        lambda1=args.lambda1, lambda2=args.lambda2,
        wavelet_scales=_parse_scales(args.scales), seed=args.seed)


def _diverged(detail: str) -> ConfigError:
    return ConfigError(f"training diverged ({detail}); lower --lr, "
                       f"--lambda1 or --lambda2")


def _train_one(bundle, train_cfg: tr.TrainConfig, ablation: str,
               dataset_digest: str):
    """Train and calibrate one variant; return the training result and the
    checkpoint's config block (the bank follows from the scales, so the
    model's parameters complete the checkpoint). Writes nothing.

    A run that diverges is refused: a non-finite value during training or
    calibration, or a non-finite final loss or threshold, which ``eval``
    would refuse to load.
    """
    model = DualDomainAutoencoder(ModelConfig(ablation=ablation),
                                  seed=train_cfg.seed)
    try:
        # overflow is reported once, by the checks, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            result = tr.train_and_calibrate(bundle, model, train_cfg)
    except NumericalError as exc:
        raise _diverged(str(exc)) from exc
    threshold = result["detector"].threshold
    final = result["history"][-1]
    if not all(map(math.isfinite, (final, threshold.value, threshold.mu,
                                   threshold.sigma))):
        raise _diverged(f"final loss {final}, threshold {threshold.value}")
    config = {
        "model": asdict(model.config),
        "train": asdict(train_cfg),
        "threshold": {"value": threshold.value, "mu": threshold.mu,
                      "sigma": threshold.sigma},
        "dataset_sha256": dataset_digest,
    }
    return result, config


def cmd_train(args) -> int:
    bundle = datafile.read_dataset(args.data)
    # read to validate the file; training never uses it. An empty split,
    # not a slice: a slice is a view that would keep every test row alive
    bundle.test = sim.stack_rows([])
    inputs = _digests({"dataset": args.data})
    train_cfg = _train_config(args)
    t0 = time.perf_counter()
    result, config = _train_one(bundle, train_cfg,
                                ABLATION_FLAGS[args.ablation],
                                inputs["dataset"]["sha256"])
    elapsed = time.perf_counter() - t0
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    datafile.write_checkpoint(out, config, result["model"].values)
    _write_manifest(out.with_name(out.name + ".manifest.json"), args,
                    inputs=inputs, outputs={"checkpoint": out},
                    volatile={"elapsed_s": elapsed,
                              "train_seconds": result["train_seconds"]})
    print(f"trained {args.ablation} for {args.epochs} epochs: "
          f"final loss {result['history'][-1]:.6f}, "
          f"threshold {config['threshold']['value']:.6f}")
    print(f"checkpoint {out}")
    return 0


# --- eval ---------------------------------------------------------------------

def _load_checkpoint(path) -> tr.Detector:
    """Rebuild the detector a checkpoint stores.

    The format holds exactly the model's parameters: the bank is rebuilt
    from the configured scales, so a stored bank is refused as trailing bytes.
    """
    config, values = datafile.read_checkpoint(path)
    try:
        model_cfg = ModelConfig(**config["model"])
        block = config["train"]
        train_cfg = tr.TrainConfig(**{
            **block, "wavelet_scales": tuple(block["wavelet_scales"])})
        threshold = tr.Threshold(**config["threshold"])
        lambda2, bank = tr.wavelet_term(model_cfg, train_cfg.lambda2,
                                        train_cfg.wavelet_scales)
        if not all(map(math.isfinite, (threshold.value, threshold.mu,
                                       threshold.sigma))):
            raise ValueError("non-finite threshold")
        model = DualDomainAutoencoder(model_cfg, parameters=values)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(
            f"bad checkpoint {Path(path).name}: {exc!r}") from exc
    return tr.Detector(model, threshold, float(train_cfg.lambda1), lambda2,
                       bank)


# the files ev.write_report_files writes into a report directory
REPORT_FILES = ("report.json", "roc.csv", "confusion.csv")
SUMMARY_HEADER = f"{'accuracy':>10} {'f1':>10} {'auc':>10} {'time_s':>10}"


def _summary_row(report) -> str:
    return (f"{report.accuracy:>10.4f} {report.f1:>10.4f} "
            f"{report.auc:>10.4f} {report.mean_batch_time_s:>10.4f}")


def cmd_eval(args) -> int:
    detector = _load_checkpoint(args.model)
    # read whole to validate the file; only the test split is scored, so
    # the other two are freed before scoring
    bundle = datafile.read_dataset(args.data)
    test, norm_stats = bundle.test, bundle.norm_stats
    del bundle
    inputs = _digests({"checkpoint": args.model, "dataset": args.data})
    t0 = time.perf_counter()
    try:
        report = ev.evaluate(detector, test, norm_stats)
    except NumericalError as exc:
        # the dataset is checked finite on read, so the parameters are at fault
        raise FormatError(f"checkpoint {Path(args.model).name} cannot score "
                          f"{Path(args.data).name}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    out_dir = Path(args.out_dir)
    ev.write_report_files(report, out_dir)
    _write_manifest(out_dir / "manifest.json", args, inputs=inputs,
                    outputs={name: out_dir / name for name in REPORT_FILES},
                    volatile={"elapsed_s": elapsed,
                              "mean_batch_time_s": report.mean_batch_time_s})
    print(SUMMARY_HEADER)
    print(_summary_row(report))
    return 0


# --- ablate -------------------------------------------------------------------

def cmd_ablate(args) -> int:
    """Train and score all four variants, then write every file: a variant
    that fails leaves nothing behind."""
    bundle = datafile.read_dataset(args.data)
    inputs = _digests({"dataset": args.data})
    train_cfg = _train_config(args)
    variants = {}
    volatile = {}
    for name, ablation in ABLATION_FLAGS.items():
        t0 = time.perf_counter()
        result, config = _train_one(bundle, train_cfg, ablation,
                                    inputs["dataset"]["sha256"])
        report = ev.evaluate(result["detector"], bundle.test,
                             bundle.norm_stats)
        volatile[f"{name}_elapsed_s"] = time.perf_counter() - t0
        volatile[f"{name}_mean_batch_time_s"] = report.mean_batch_time_s
        variants[name] = (result, config, report)

    out_dir = Path(args.out_dir)
    outputs = {}
    for name, (result, config, report) in variants.items():
        variant_dir = out_dir / name
        variant_dir.mkdir(parents=True, exist_ok=True)
        ckpt = variant_dir / "checkpoint.dawm"
        datafile.write_checkpoint(ckpt, config, result["model"].values)
        ev.write_report_files(report, variant_dir)
        outputs[f"{name}/checkpoint.dawm"] = ckpt
        for file in REPORT_FILES:
            outputs[f"{name}/{file}"] = variant_dir / file
    table_path = out_dir / "ablation.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("variant,accuracy,f1,auc\n")
        for name, (_, _, report) in variants.items():
            fh.write(f"{name},{report.accuracy:.6f},{report.f1:.6f},"
                     f"{report.auc:.6f}\n")
    outputs["ablation.csv"] = table_path
    _write_manifest(out_dir / "manifest.json", args, inputs=inputs,
                    outputs=outputs, volatile=volatile)
    print(f"{'variant':>12} {SUMMARY_HEADER}")
    for name, (_, _, report) in variants.items():
        print(f"{name:>12} {_summary_row(report)}")
    return 0


# --- parser -------------------------------------------------------------------

def _add_train_flags(parser) -> None:
    """The training flags `train` and `ablate` share (read by _train_config),
    each defaulting to its ``TrainConfig`` field."""
    cfg = tr.TrainConfig()
    parser.add_argument("--epochs", type=int, default=cfg.epochs)
    parser.add_argument("--batch", type=int, default=cfg.batch_size)
    parser.add_argument("--lr", type=float, default=cfg.learning_rate)
    parser.add_argument("--lambda1", type=float, default=cfg.lambda1)
    parser.add_argument("--lambda2", type=float, default=cfg.lambda2)
    parser.add_argument("--scales",
                        default=",".join(map(str, cfg.wavelet_scales)),
                        help="comma-separated wavelet scales")
    parser.add_argument("--seed", type=int, default=cfg.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dawnet",
        description="Synthesize satellite interference data, train the "
                    "dual-domain detector, and report detection metrics.")
    parser.add_argument("--version", action="version",
                        version=f"dawnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a labeled dataset file")
    g.add_argument("--out", required=True, help="output dataset path")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train", type=int, default=None,
                   help="clean training snapshots (overrides preset)")
    g.add_argument("--val", type=int, default=None,
                   help="clean validation snapshots (overrides preset)")
    g.add_argument("--test-per-class", type=int, default=None,
                   help="test snapshots per class (overrides preset)")
    g.add_argument("--preset", choices=sorted(PRESETS), default="desk")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train and calibrate a detector")
    t.add_argument("--data", required=True, help="dataset file from gen-data")
    _add_train_flags(t)
    t.add_argument("--ablation", choices=list(ABLATION_FLAGS),
                   default="full")
    t.add_argument("--out", required=True, help="checkpoint output path")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a test split against a checkpoint")
    e.add_argument("--model", required=True, help="checkpoint from train")
    e.add_argument("--data", required=True, help="dataset file from gen-data")
    e.add_argument("--out-dir", required=True)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate",
                       help="train and evaluate all four model variants")
    a.add_argument("--data", required=True)
    _add_train_flags(a)
    a.add_argument("--out-dir", required=True)
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, FormatError, GenerationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DawnetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
