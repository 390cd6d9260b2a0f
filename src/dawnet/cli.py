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


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _artifact_digest(path) -> str:
    """Digest over stable content.

    JSON artifacts are digested over their canonical form with any
    top-level "volatile" block removed, so identical-seed runs record
    identical digests; everything else is digested over raw bytes.
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(doc, dict):
            doc.pop("volatile", None)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return _sha256(path)


def _write_manifest(path, command: str, flags: dict, inputs: dict,
                    outputs: dict, seed, volatile: dict) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "digest_policy": "json files: canonical form minus volatile block; "
                         "other files: raw bytes",
        "flags": flags,
        "seed": seed,
        "inputs": {name: {"path": str(p), "sha256": _artifact_digest(p)}
                   for name, p in inputs.items()},
        "outputs": {name: {"path": str(p), "sha256": _artifact_digest(p)}
                    for name, p in outputs.items()},
        "volatile": volatile,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_scales(text: str) -> tuple:
    try:
        scales = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--scales expects comma-separated integers, "
                          f"got {text!r}")
    return scales


# --- gen-data -----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    preset = PRESETS[args.preset]
    counts = (args.train if args.train is not None else preset[0],
              args.val if args.val is not None else preset[1],
              args.test_per_class if args.test_per_class is not None
              else preset[2])
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
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="gen-data",
        flags={"out": str(out), "seed": args.seed, "train": counts[0],
               "val": counts[1], "test_per_class": counts[2],
               "preset": args.preset},
        inputs={},
        outputs={"dataset": out},
        seed=args.seed,
        volatile={"timestamp_utc": _now(), "elapsed_s": elapsed},
    )
    print(f"wrote {counts[0]} train / {counts[1]} val / "
          f"{counts[2]}+{counts[2]} test snapshots to {out}")
    print(f"sha256 {_sha256(out)}")
    return 0


# --- train --------------------------------------------------------------------

def _train_flags(args) -> dict:
    return {
        "data": str(args.data), "epochs": args.epochs, "batch": args.batch,
        "lr": args.lr, "lambda1": args.lambda1, "lambda2": args.lambda2,
        "scales": args.scales, "ablation": args.ablation,
        "seed": args.seed, "out": str(args.out),
    }


def _train_config(args) -> tr.TrainConfig:
    return tr.TrainConfig(
        epochs=args.epochs, batch_size=args.batch, learning_rate=args.lr,
        lambda1=args.lambda1, lambda2=args.lambda2,
        wavelet_scales=_parse_scales(args.scales), seed=args.seed)


def _diverged(detail: str) -> ConfigError:
    return ConfigError(f"training diverged ({detail}); lower --lr, "
                       f"--lambda1 or --lambda2")


def _train_one(bundle, train_cfg: tr.TrainConfig, ablation: str,
               out_path: Path, dataset_digest: str) -> dict:
    """Train and calibrate one variant and write its checkpoint: the config
    block and the model's parameters (the bank follows from the scales).

    A run that diverges is refused before anything is written: a non-finite
    value during training or calibration, or a non-finite final loss or
    threshold, which ``eval`` would refuse to load.
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
        "model": model.config.to_dict(),
        "train": train_cfg.to_dict(),
        "threshold": {"value": threshold.value, "mu": threshold.mu,
                      "sigma": threshold.sigma},
        "dataset_sha256": dataset_digest,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    datafile.write_checkpoint(out_path, config, model.named_parameters())
    return result


def cmd_train(args) -> int:
    data_path = Path(args.data)
    bundle = datafile.read_dataset(data_path)
    train_cfg = _train_config(args)
    ablation = ABLATION_FLAGS[args.ablation]
    out = Path(args.out)
    dataset_digest = _sha256(data_path)
    t0 = time.perf_counter()
    result = _train_one(bundle, train_cfg, ablation, out, dataset_digest)
    elapsed = time.perf_counter() - t0
    threshold = result["detector"].threshold
    _write_manifest(
        out.with_name(out.name + ".manifest.json"),
        command="train",
        flags=_train_flags(args),
        inputs={"dataset": data_path},
        outputs={"checkpoint": out},
        seed=args.seed,
        volatile={"timestamp_utc": _now(), "elapsed_s": elapsed,
                  "train_seconds": result["train_seconds"]},
    )
    print(f"trained {args.ablation} for {args.epochs} epochs: "
          f"final loss {result['history'][-1]:.6f}, "
          f"threshold {threshold.value:.6f}")
    print(f"checkpoint {out}")
    return 0


# --- eval ---------------------------------------------------------------------

def _load_checkpoint(path) -> tr.Detector:
    """Rebuild the detector a checkpoint stores.

    The parameters must be exactly the model's: the bank is rebuilt from the
    configured scales, so a file that stores wavelet kernels is refused.
    """
    config, params = datafile.read_checkpoint(path)
    try:
        model_cfg = ModelConfig.from_dict(config["model"])
        block = config["train"]
        train_cfg = tr.TrainConfig(**{
            **block, "wavelet_scales": tuple(block["wavelet_scales"])})
        threshold = tr.Threshold(**config["threshold"])
        lambda2, bank = tr.wavelet_term(model_cfg, train_cfg.lambda2,
                                        train_cfg.wavelet_scales)
        if not all(map(math.isfinite, (threshold.value, threshold.mu,
                                       threshold.sigma))):
            raise ValueError("non-finite threshold")
        model = DualDomainAutoencoder(model_cfg, seed=0)
        model.load_named_parameters(params)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(
            f"bad checkpoint {Path(path).name}: {exc!r}") from exc
    return tr.Detector(model, threshold, float(train_cfg.lambda1), lambda2,
                       bank)


def _summary_row(report) -> str:
    header = f"{'accuracy':>10} {'f1':>10} {'auc':>10} {'time_s':>10}"
    row = (f"{report.accuracy:>10.4f} {report.f1:>10.4f} "
           f"{report.auc:>10.4f} {report.mean_batch_time_s:>10.4f}")
    return header + "\n" + row


def cmd_eval(args) -> int:
    model_path = Path(args.model)
    data_path = Path(args.data)
    out_dir = Path(args.out_dir)
    detector = _load_checkpoint(model_path)
    bundle = datafile.read_dataset(data_path)
    t0 = time.perf_counter()
    try:
        report = ev.evaluate(detector, bundle.test, bundle.norm_stats)
    except NumericalError as exc:
        # the dataset is checked finite on read, so the parameters are at fault
        raise FormatError(f"checkpoint {model_path.name} cannot score "
                          f"{data_path.name}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    ev.write_report_files(report, out_dir)
    _write_manifest(
        out_dir / "manifest.json",
        command="eval",
        flags={"model": str(model_path), "data": str(data_path),
               "out_dir": str(out_dir)},
        inputs={"checkpoint": model_path, "dataset": data_path},
        outputs={name: out_dir / name
                 for name in ("report.json", "roc.csv", "confusion.csv")},
        seed=None,
        volatile={"timestamp_utc": _now(), "elapsed_s": elapsed,
                  "mean_batch_time_s": report.mean_batch_time_s},
    )
    print(_summary_row(report))
    return 0


# --- ablate -------------------------------------------------------------------

def cmd_ablate(args) -> int:
    data_path = Path(args.data)
    bundle = datafile.read_dataset(data_path)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_digest = _sha256(data_path)
    rows = []
    outputs = {}
    volatile = {"timestamp_utc": _now()}
    train_cfg = _train_config(args)
    for flag_name, ablation in ABLATION_FLAGS.items():
        variant_dir = out_dir / flag_name
        ckpt = variant_dir / "checkpoint.dawm"
        t0 = time.perf_counter()
        result = _train_one(bundle, train_cfg, ablation, ckpt,
                            dataset_digest)
        report = ev.evaluate(result["detector"], bundle.test,
                             bundle.norm_stats)
        elapsed = time.perf_counter() - t0
        ev.write_report_files(report, variant_dir)
        rows.append((flag_name, report))
        outputs[f"{flag_name}/checkpoint.dawm"] = ckpt
        for name in ("report.json", "roc.csv", "confusion.csv"):
            outputs[f"{flag_name}/{name}"] = variant_dir / name
        volatile[f"{flag_name}_elapsed_s"] = elapsed
        volatile[f"{flag_name}_mean_batch_time_s"] = report.mean_batch_time_s

    table_path = out_dir / "ablation.csv"
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("variant,accuracy,f1,auc\n")
        for name, report in rows:
            fh.write(f"{name},{report.accuracy:.6f},{report.f1:.6f},"
                     f"{report.auc:.6f}\n")
    outputs["ablation.csv"] = table_path
    _write_manifest(
        out_dir / "manifest.json",
        command="ablate",
        flags={"data": str(data_path), "epochs": args.epochs,
               "batch": args.batch, "lr": args.lr,
               "lambda1": args.lambda1, "lambda2": args.lambda2,
               "scales": args.scales, "seed": args.seed,
               "out_dir": str(out_dir)},
        inputs={"dataset": data_path},
        outputs=outputs,
        seed=args.seed,
        volatile=volatile,
    )
    print(f"{'variant':>12} {'accuracy':>10} {'f1':>10} {'auc':>10} "
          f"{'time_s':>10}")
    for name, report in rows:
        print(f"{name:>12} {report.accuracy:>10.4f} {report.f1:>10.4f} "
              f"{report.auc:>10.4f} {report.mean_batch_time_s:>10.4f}")
    return 0


# --- parser -------------------------------------------------------------------

def _add_train_flags(parser) -> None:
    """The training flags `train` and `ablate` share (read by _train_config)."""
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--lambda1", type=float, default=1.0)
    parser.add_argument("--lambda2", type=float, default=0.1)
    parser.add_argument("--scales", default="4,8,16",
                        help="comma-separated wavelet scales")
    parser.add_argument("--seed", type=int, default=0)


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
