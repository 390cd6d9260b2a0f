"""Command wiring: presets, artifacts, manifests, exit codes."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
import types
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dawnet import cli, datafile, evaluation, training, wavelet
from dawnet import simulate as sim
from dawnet.errors import NumericalError
from dawnet.model import PARAMETERS, ModelConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny generated dataset plus a 1-epoch full-model checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data.dawn"
    rc = cli.main(["gen-data", "--out", str(data), "--seed", "7",
                   "--train", "24", "--val", "8", "--test-per-class", "6"])
    assert rc == 0
    model = root / "model.dawm"
    rc = cli.main(["train", "--data", str(data), "--epochs", "1",
                   "--batch", "8", "--seed", "3", "--out", str(model)])
    assert rc == 0
    return root, data, model


def test_presets_documented_counts():
    assert cli.PRESETS["desk"] == (2000, 256, 200)
    assert cli.PRESETS["paper"] == (11509, 1302, 2235)


def test_ablation_flag_map_order():
    assert list(cli.ABLATION_FLAGS) == ["full", "no-attn", "no-wavelet",
                                        "vanilla"]
    assert cli.ABLATION_FLAGS["no-attn"] == "no_mutual_attention"
    assert cli.ABLATION_FLAGS["no-wavelet"] == "no_wavelet_loss"


def test_gen_data_flags_override_preset(workspace):
    root, data, _ = workspace
    bundle = datafile.read_dataset(data)
    assert len(bundle.train) == 24
    assert len(bundle.validation) == 8
    assert len(bundle.test) == 12
    manifest = json.loads(
        (root / "data.dawn.manifest.json").read_text())
    assert manifest["flags"]["train"] == 24
    assert manifest["flags"]["preset"] == "desk"
    assert manifest["command"] == "gen-data"
    assert set(manifest["outputs"]) == {"dataset"}
    assert len(manifest["outputs"]["dataset"]["sha256"]) == 64


def test_gen_data_writes_dataset_and_manifest_only(tmp_path):
    out = tmp_path / "d.dawn"
    assert cli.main(["gen-data", "--out", str(out), "--train", "2", "--val",
                     "2", "--test-per-class", "2"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "d.dawn", "d.dawn.manifest.json"]


def test_gen_data_split_too_large_to_allocate_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    # a count the header allows, whose split this machine cannot hold: the
    # allocation is refused by a stand-in np.zeros, never attempted
    class NoHugeZeros:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(shape, dtype=float):
            if np.prod(shape) * np.dtype(dtype).itemsize > 2 ** 30:
                raise MemoryError("stand-in for a failed allocation")
            return np.zeros(shape, dtype)

    monkeypatch.setattr(sim, "np", NoHugeZeros())
    out = tmp_path / "d.dawn"
    huge = datafile.MAX_SPLIT_LEN
    assert cli.main(["gen-data", "--out", str(out), "--train", str(huge),
                     "--val", "2", "--test-per-class", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "train split" in err
    assert f"{huge * sim.SNAPSHOT.itemsize} bytes" in err
    assert not out.exists()


def test_gen_data_negative_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "d.dawn"
    assert cli.main(["gen-data", "--out", str(out), "--seed", "-1",
                     "--train", "2", "--val", "2",
                     "--test-per-class", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


def test_gen_data_same_seed_same_digest(tmp_path, workspace):
    _, data, _ = workspace
    other = tmp_path / "again.dawn"
    rc = cli.main(["gen-data", "--out", str(other), "--seed", "7",
                   "--train", "24", "--val", "8", "--test-per-class", "6"])
    assert rc == 0
    assert other.read_bytes() == data.read_bytes()


def test_train_metadata_echoes_flags(workspace):
    root, data, model = workspace
    manifest = json.loads(
        (root / "model.dawm.manifest.json").read_text())
    flags = manifest["flags"]
    for key in ("data", "epochs", "batch", "lr", "lambda1", "lambda2",
                "scales", "ablation", "seed", "out"):
        assert key in flags
    assert flags["epochs"] == 1
    assert flags["seed"] == 3
    assert manifest["inputs"]["dataset"]["path"] == str(data)
    assert "timestamp_utc" in manifest["volatile"]


def test_train_checkpoint_carries_threshold(workspace):
    _, _, model = workspace
    config, values = datafile.read_checkpoint(model)
    assert set(config["threshold"]) == {"value", "mu", "sigma"}
    th = config["threshold"]
    assert th["value"] == th["mu"] + th["sigma"]
    assert config["model"]["ablation"] == "full"
    assert values.dtype == PARAMETERS and values.shape == ()


def test_train_vanilla_disables_attention_and_wavelet(tmp_path, workspace):
    _, data, _ = workspace
    out = tmp_path / "vanilla.dawm"
    rc = cli.main(["train", "--data", str(data), "--epochs", "1",
                   "--batch", "8", "--seed", "3", "--ablation", "vanilla",
                   "--out", str(out)])
    assert rc == 0
    config, _ = datafile.read_checkpoint(out)
    mc = ModelConfig(**config["model"])
    assert not mc.uses_attention and not mc.uses_wavelet_loss
    _, _, lambda1, lambda2, bank = cli._load_checkpoint(out)
    assert lambda2 == 0.0 and bank is None


def test_load_checkpoint_restores_params(workspace):
    _, _, model = workspace
    net, threshold, lambda1, lambda2, bank = cli._load_checkpoint(model)
    config, values = datafile.read_checkpoint(model)
    assert net.values.tobytes() == values.tobytes()
    assert threshold.value == config["threshold"]["value"]
    assert lambda1 == 1.0 and lambda2 == 0.1 and bank is not None


def test_load_checkpoint_builds_the_model_from_the_stored_arrays(
        workspace, monkeypatch):
    # no initial weights are drawn only to be overwritten: the model's
    # parameters are the checkpoint's record, bit for bit
    _, _, model = workspace
    _, values = datafile.read_checkpoint(model)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading a checkpoint drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    net = cli._load_checkpoint(model).model
    assert net.values.dtype == PARAMETERS
    assert net.values.tobytes() == values.tobytes()


def test_eval_emits_exactly_four_files(tmp_path, workspace, capsys):
    _, data, model = workspace
    out_dir = tmp_path / "ev"
    rc = cli.main(["eval", "--model", str(model), "--data", str(data),
                   "--out-dir", str(out_dir)])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["confusion.csv", "manifest.json", "report.json",
                     "roc.csv"]
    printed = capsys.readouterr().out.strip().split("\n")
    assert printed[-2].split() == ["accuracy", "f1", "auc", "time_s"]
    assert len(printed[-1].split()) == 4
    report = json.loads((out_dir / "report.json").read_text())
    conf = report["confusion"]
    assert conf["tn"] + conf["fp"] + conf["fn"] + conf["tp"] == 12


def test_ablate_table_rows_in_order(tmp_path, workspace):
    _, data, _ = workspace
    out_dir = tmp_path / "abl"
    rc = cli.main(["ablate", "--data", str(data), "--epochs", "1",
                   "--batch", "8", "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "ablation.csv").read_text().strip().split("\n")
    assert lines[0] == "variant,accuracy,f1,auc"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "full", "no-attn", "no-wavelet", "vanilla"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3
    for variant in ("full", "no-attn", "no-wavelet", "vanilla"):
        assert (out_dir / variant / "checkpoint.dawm").exists()
        assert f"{variant}/report.json" in manifest["outputs"]
        assert manifest["volatile"][f"{variant}_mean_batch_time_s"] > 0


def test_ablate_same_seed_same_artifacts(tmp_path, workspace, monkeypatch):
    _, data, _ = workspace
    stable = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        assert cli.main(["ablate", "--data", str(data), "--epochs", "1",
                         "--batch", "8", "--seed", "3",
                         "--out-dir", "abl"]) == 0
        manifest = json.loads(Path("abl/manifest.json").read_text())
        manifest.pop("volatile")
        stable.append((Path("abl/ablation.csv").read_bytes(), manifest))
    assert stable[0][0] == stable[1][0]
    assert stable[0][1] == stable[1][1]


def test_ablate_failing_variant_writes_nothing(tmp_path, workspace,
                                              monkeypatch, capsys):
    # the third variant diverges after two have trained: no file of theirs
    # may be left without the table and the manifest
    _, data, _ = workspace
    calls = []
    train_and_calibrate = training.train_and_calibrate

    def third_diverges(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise NumericalError("non-finite loss at epoch 0 step 0")
        return train_and_calibrate(*args, **kwargs)

    monkeypatch.setattr(training, "train_and_calibrate", third_diverges)
    out_dir = tmp_path / "abl"
    rc = cli.main(["ablate", "--data", str(data), "--epochs", "1",
                   "--batch", "8", "--seed", "3", "--out-dir", str(out_dir)])
    assert rc == 2 and len(calls) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged")
    assert len(err.splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("command,argv,manifest", [
    ("gen-data", ["--out", "{tmp}/d.dawn", "--train", "2", "--val", "2",
                  "--test-per-class", "2"], "d.dawn.manifest.json"),
    ("train", ["--data", "{data}", "--epochs", "1", "--batch", "8",
               "--out", "{tmp}/m.dawm"], "m.dawm.manifest.json"),
    ("eval", ["--model", "{model}", "--data", "{data}",
              "--out-dir", "{tmp}/ev"], "ev/manifest.json"),
    ("ablate", ["--data", "{data}", "--epochs", "1", "--batch", "8",
                "--out-dir", "{tmp}/abl"], "abl/manifest.json"),
], ids=["gen-data", "train", "eval", "ablate"])
def test_each_file_digested_once(tmp_path, workspace, monkeypatch, capsys,
                                 command, argv, manifest):
    _, data, model = workspace
    digested, hashes = [], []
    artifact_digest = cli._artifact_digest

    def recorded(path, *args):
        digested.append(str(Path(path)))
        return artifact_digest(path, *args)

    def sha256(*args):
        hashes.append(1)
        return hashlib.sha256(*args)

    monkeypatch.setattr(cli, "_artifact_digest", recorded)
    monkeypatch.setattr(cli, "hashlib", types.SimpleNamespace(sha256=sha256))
    argv = [a.format(tmp=tmp_path, data=data, model=model) for a in argv]
    assert cli.main([command, *argv]) == 0
    doc = json.loads((tmp_path / manifest).read_text())
    records = [*doc["inputs"].values(), *doc["outputs"].values()]
    assert sorted(digested) == sorted(r["path"] for r in records)
    assert len(set(digested)) == len(digested) == len(hashes)
    # the digest a command reports is the one its manifest holds
    if command == "gen-data":
        sha = doc["outputs"]["dataset"]["sha256"]
        assert f"sha256 {sha}" in capsys.readouterr().out.splitlines()
    if command == "train":
        config, _ = datafile.read_checkpoint(tmp_path / "m.dawm")
        assert config["dataset_sha256"] == doc["inputs"]["dataset"]["sha256"]


def test_json_named_dataset_and_checkpoint_digested_by_bytes(tmp_path):
    # a name ending in .json does not make a binary file a JSON document
    data, model = tmp_path / "data.json", tmp_path / "model.json"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "0",
                     "--train", "16", "--val", "8",
                     "--test-per-class", "8"]) == 0
    assert cli.main(["train", "--data", str(data), "--epochs", "1",
                     "--batch", "8", "--out", str(model)]) == 0
    assert cli.main(["eval", "--model", str(model), "--data", str(data),
                     "--out-dir", str(tmp_path / "ev")]) == 0
    records = []
    for manifest in ("data.json.manifest.json", "model.json.manifest.json",
                     "ev/manifest.json"):
        doc = json.loads((tmp_path / manifest).read_text())
        assert doc["digest_policy"] == ("report.json: canonical form minus "
                                        "volatile block; other files: raw "
                                        "bytes")
        records += [*doc["inputs"].values(), *doc["outputs"].values()]
    binary = [r for r in records if Path(r["path"]).suffix == ".json"
              and Path(r["path"]).name != "report.json"]
    assert len(binary) == 5
    for record in binary:
        want = hashlib.sha256(Path(record["path"]).read_bytes()).hexdigest()
        assert record["sha256"] == want


def test_train_flag_defaults_are_train_config():
    args = cli.build_parser().parse_args(["train", "--data", "d.dawn",
                                          "--out", "m.dawm"])
    assert cli._train_config(args) == training.TrainConfig()
    # the manifest records the flag as given, a string
    assert args.scales == "4,8,16"


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--epochs", "1", "--out", "x.dawm"])
    assert exc.value.code == 2


def test_corrupt_dataset_exits_2(tmp_path, workspace, capsys):
    _, _, model = workspace
    bad = tmp_path / "bad.dawn"
    bad.write_bytes(b"NOPE" + bytes(64))
    rc = cli.main(["train", "--data", str(bad), "--epochs", "1",
                   "--out", str(tmp_path / "m.dawm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "offset 0" in err
    rc = cli.main(["eval", "--model", str(model), "--data", str(bad),
                   "--out-dir", str(tmp_path / "ev")])
    assert rc == 2


def test_train_frees_the_test_split(tmp_path, workspace, monkeypatch):
    # training never reads the test split, so `train` drops it before the
    # first step and its rows are freed, not kept alive by a view
    _, data, _ = workspace
    read, train = datafile.read_dataset, training.train_and_calibrate
    test_split, seen = [], []

    def reading(path):
        bundle = read(path)
        test_split.append(weakref.ref(bundle.test))
        return bundle

    def training_(bundle, model, cfg):
        seen.append((len(bundle.test), test_split[0]()))
        return train(bundle, model, cfg)

    monkeypatch.setattr(datafile, "read_dataset", reading)
    monkeypatch.setattr(training, "train_and_calibrate", training_)
    assert cli.main(["train", "--data", str(data), "--epochs", "1",
                     "--out", str(tmp_path / "m.dawm")]) == 0
    assert seen == [(0, None)]


def test_eval_frees_the_unscored_splits(tmp_path, workspace, monkeypatch):
    # eval scores only the test split, so the training and validation rows
    # it read are freed before scoring starts
    _, data, model = workspace
    read, evaluate = datafile.read_dataset, evaluation.evaluate
    unscored, seen = [], []

    def reading(path):
        bundle = read(path)
        unscored.extend(weakref.ref(s) for s in (bundle.train,
                                                  bundle.validation))
        return bundle

    def scoring(detector, test, norm_stats):
        seen.append([ref() is None for ref in unscored])
        return evaluate(detector, test, norm_stats)

    monkeypatch.setattr(datafile, "read_dataset", reading)
    monkeypatch.setattr(evaluation, "evaluate", scoring)
    assert cli.main(["eval", "--model", str(model), "--data", str(data),
                     "--out-dir", str(tmp_path / "ev")]) == 0
    assert seen == [[True, True]]


def test_config_blocks_serialize_as_their_fields():
    # a checkpoint's model and train blocks are the configs' fields, so
    # checkpoints written before and after read the same
    cases = [
        (ModelConfig(), training.TrainConfig(),
         '{"model": {"ablation": "full"}, "train": {"batch_size": 64, '
         '"epochs": 50, "lambda1": 1.0, "lambda2": 0.1, "learning_rate": '
         '0.001, "seed": 0, "wavelet_scales": [4, 8, 16]}}'),
        (ModelConfig("no_wavelet_loss"),
         training.TrainConfig(epochs=3, batch_size=5, learning_rate=2.5e-4,
                              lambda1=0.5, lambda2=0.0,
                              wavelet_scales=(2, 3.5), seed=9),
         '{"model": {"ablation": "no_wavelet_loss"}, "train": {"batch_size": '
         '5, "epochs": 3, "lambda1": 0.5, "lambda2": 0.0, "learning_rate": '
         '0.00025, "seed": 9, "wavelet_scales": [2, 3.5]}}'),
    ]
    for model_cfg, train_cfg, text in cases:
        blocks = {"model": asdict(model_cfg), "train": asdict(train_cfg)}
        assert json.dumps(blocks, sort_keys=True) == text
        assert ModelConfig(**json.loads(text)["model"]) == model_cfg


# the dataset header: 60 bytes, the three split counts at offset 8
HEADER_LEN, COUNTS_AT = 60, 8


@pytest.mark.parametrize("command,empty", [("train", "validation"),
                                          ("eval", "test")])
def test_zero_row_split_exits_2(tmp_path, workspace, capsys, command, empty):
    _, data, model = workspace
    bundle = datafile.read_dataset(data)
    counts = [len(bundle.train), len(bundle.validation), len(bundle.test)]
    blob = bytearray(data.read_bytes())
    if empty == "validation":
        # the validation records become training records
        counts = [counts[0] + counts[1], 0, counts[2]]
    else:
        # the test records go
        size = sim.SNAPSHOT.itemsize
        del blob[HEADER_LEN + (counts[0] + counts[1]) * size:]
        counts[2] = 0
    struct.pack_into("<3I", blob, COUNTS_AT, *counts)
    bad = tmp_path / "empty.dawn"
    bad.write_bytes(bytes(blob))
    argv = {"train": ["train", "--epochs", "1",
                      "--out", str(tmp_path / "m.dawm")],
            "eval": ["eval", "--model", str(model),
                     "--out-dir", str(tmp_path / "ev")]}[command]
    assert cli.main([*argv, "--data", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert f"{empty} split is empty" in err and "Traceback" not in err


@pytest.mark.parametrize("scales", ["4,eight", "1000000000000"])
def test_bad_scales_exits_2(tmp_path, workspace, capsys, scales):
    # a 4e12-tap bank can never be allocated: it must be refused unbuilt
    _, data, _ = workspace
    rc = cli.main(["train", "--data", str(data), "--epochs", "1",
                   "--scales", scales, "--out",
                   str(tmp_path / "m.dawm")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "m.dawm").exists()


@pytest.mark.parametrize("flag,value", [
    ("--lambda2", "nan"), ("--lr", "nan"), ("--lr", "inf"),
    ("--lambda1", "inf"),
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_nonfinite_hyperparameter_exits_2(tmp_path, workspace, command, flag,
                                          value):
    # nan > 0 is false: --lambda2 nan used to train with no wavelet term
    _, data, _ = workspace
    out = tmp_path / "out"
    dest = ["--out", str(out)] if command == "train" else ["--out-dir",
                                                          str(out)]
    rc = cli.main([command, "--data", str(data), "--epochs", "1",
                   flag, value, *dest])
    assert rc == 2
    assert not out.is_file() and not any(out.glob("*/checkpoint.dawm"))


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("diverge") / "data.dawn"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "3",
                     "--train", "16", "--val", "4",
                     "--test-per-class", "8"]) == 0
    return data


@pytest.mark.parametrize("flag,value", [
    ("--lr", "1e300"),      # the calibration forward pass overflows
    ("--lr", "1e30"),
    ("--lr", "1e10"),       # finite losses whose spread overflows
    ("--lambda1", "1e308"),  # the final loss and the threshold overflow
])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_diverged_training_exits_2(tmp_path, small_data, capsys, command,
                                   flag, value):
    out = tmp_path / "out"
    dest = ["--out", str(out)] if command == "train" else ["--out-dir",
                                                          str(out)]
    with warnings.catch_warnings():
        # a numpy RuntimeWarning on the way becomes a traceback here
        warnings.simplefilter("error")
        rc = cli.main([command, "--data", str(small_data), "--epochs", "1",
                       flag, value, *dest])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: training diverged") and "--lr" in err
    assert not out.is_file() and not any(out.glob("**/*.dawm"))
    assert not list(tmp_path.glob("**/*manifest.json"))


@pytest.mark.parametrize("argv", [
    ["train", "--data", "{tmp}/absent.dawn", "--epochs", "1",
     "--out", "{tmp}/m.dawm"],
    ["eval", "--model", "{model}", "--data", "{tmp}", "--out-dir", "{tmp}/ev"],
    ["eval", "--model", "{tmp}", "--data", "{data}", "--out-dir", "{tmp}/ev"],
    ["gen-data", "--out", "{tmp}", "--train", "2", "--val", "2",
     "--test-per-class", "2"],
], ids=["missing", "data-dir", "model-dir", "out-dir"])
def test_missing_dataset_file_exits_2(tmp_path, workspace, argv):
    _, data, model = workspace
    argv = [a.format(tmp=tmp_path, data=data, model=model) for a in argv]
    assert cli.main(argv) == 2


def _tamper_checkpoint(path, config, values, case):
    values = values.copy()
    if case == "huge-weights":      # finite, but every score overflows
        values["decoder.out.weight"] *= 1e300
    elif case == "nan-bias":
        values["decoder.out.bias"][-1] = np.nan
    datafile.write_checkpoint(path, config, values)
    if case == "wavelet-kernels":   # a stored wavelet bank, after the model's
        with path.open("ab") as f:
            f.write(wavelet.build_bank((4, 8, 16)).kernels.astype("<f8")
                    .tobytes())


@pytest.mark.parametrize("case", ["huge-weights", "nan-bias",
                                  "wavelet-kernels"])
def test_unscorable_checkpoint_exits_2(tmp_path, workspace, capsys, case):
    _, data, model = workspace
    config, values = datafile.read_checkpoint(model)
    bad = tmp_path / "bad.dawm"
    _tamper_checkpoint(bad, config, values, case)
    out_dir = tmp_path / "ev"
    with warnings.catch_warnings():
        # a numpy RuntimeWarning on the way becomes a traceback here
        warnings.simplefilter("error")
        rc = cli.main(["eval", "--model", str(bad), "--data", str(data),
                       "--out-dir", str(out_dir)])
    assert rc == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "bad.dawm" in err
    assert not (out_dir / "report.json").exists()
    if case == "wavelet-kernels":
        assert "trailing bytes" in err


def _with_model_key(key, value):
    return lambda c: {**c, "model": {**c["model"], key: value}}


def _with_train_key(key, value):
    return lambda c: {**c, "train": {**c["train"], key: value}}


_BAD_CONFIGS = {
    "no-threshold": lambda c: {k: v for k, v in c.items() if k != "threshold"},
    "no-train": lambda c: {k: v for k, v in c.items() if k != "train"},
    "model-unknown-key": _with_model_key("depth", 3),
    "threshold-unknown-key":
        lambda c: {**c, "threshold": {**c["threshold"], "margin": 0.1}},
    "scales-string":
        lambda c: {**c, "train": {**c["train"], "wavelet_scales": "abc"}},
    "scales-inf": lambda c: {**c, "train": {**c["train"],
                                           "wavelet_scales": [float("inf")]}},
    "lambda2-string": lambda c: {**c, "train": {**c["train"], "lambda2": "x"}},
    "lambda1-nan":
        lambda c: {**c, "train": {**c["train"], "lambda1": float("nan")}},
    "lambda1-negative": _with_train_key("lambda1", -1.0),
    "lambda2-negative": _with_train_key("lambda2", -1.0),
    "train-unknown-key": _with_train_key("depth", 3),
    "threshold-string":
        lambda c: {**c, "threshold": {**c["threshold"], "value": "x"}},
    "config-list": lambda c: [c],
    # the layer sizes are fixed: a model block naming one, even at its
    # former default, is from an older checkpoint
    "model-input_len": _with_model_key("input_len", 800),
    "model-latent_channels": _with_model_key("latent_channels", 16),
    "model-latent_len": _with_model_key("latent_len", 4),
    "model-fused_dim": _with_model_key("fused_dim", 128),
    "model-reduction_factor": _with_model_key("reduction_factor", 8),
}


@pytest.mark.parametrize("case", list(_BAD_CONFIGS))
def test_malformed_checkpoint_config_exits_2(tmp_path, workspace, capsys,
                                             case):
    _, data, model = workspace
    config, values = datafile.read_checkpoint(model)
    bad = tmp_path / "bad.dawm"
    datafile.write_checkpoint(bad, _BAD_CONFIGS[case](config), values)
    rc = cli.main(["eval", "--model", str(bad), "--data", str(data),
                   "--out-dir", str(tmp_path / "ev")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.dawm" in err
    assert len(err.splitlines()) == 1


# a JSON integer beyond the float range, in each float field of the config
@pytest.mark.parametrize("block,key", [
    ("threshold", "value"), ("threshold", "mu"), ("threshold", "sigma"),
    ("train", "lambda1"), ("train", "lambda2"), ("train", "learning_rate")])
def test_checkpoint_integer_beyond_float_exits_2(tmp_path, workspace, capsys,
                                                 block, key):
    _, data, model = workspace
    config, values = datafile.read_checkpoint(model)
    config[block][key] = 10 ** 400
    bad = tmp_path / "bad.dawm"
    datafile.write_checkpoint(bad, config, values)
    rc = cli.main(["eval", "--model", str(bad), "--data", str(data),
                   "--out-dir", str(tmp_path / "ev")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.dawm" in err
    assert len(err.splitlines()) == 1


def _refuse_candidate_draws(monkeypatch):
    def drawn(rng):
        raise AssertionError("a candidate was drawn")
    monkeypatch.setattr(sim, "sample_leo_link", drawn)


@pytest.mark.parametrize("flag,count", [
    ("--train", 2 ** 32), ("--val", 2 ** 32),
    ("--test-per-class", 2 ** 31), ("--train", 10 ** 30)])
def test_gen_data_counts_beyond_header_exit_2(tmp_path, monkeypatch, capsys,
                                             flag, count):
    _refuse_candidate_draws(monkeypatch)
    argv = ["gen-data", "--out", str(tmp_path / "d.dawn"), "--train", "2",
            "--val", "2", "--test-per-class", "2", flag, str(count)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,count", [
    ("--train", 2 ** 32 - 1), ("--test-per-class", 2 ** 31 - 1)])
def test_gen_data_largest_counts_reach_the_draw(tmp_path, monkeypatch, flag,
                                                count):
    _refuse_candidate_draws(monkeypatch)
    with pytest.raises(AssertionError, match="a candidate was drawn"):
        cli.main(["gen-data", "--out", str(tmp_path / "d.dawn"), flag,
                  str(count)])


def test_nonfinite_dataset_exits_2(tmp_path, workspace, capsys):
    # one NaN PSD bin, the last, in the last test record
    _, data, model = workspace
    blob = bytearray(data.read_bytes())
    at = len(blob) - sim.SNAPSHOT.itemsize + sim.SNAPSHOT.fields["psd_db"][1]
    blob[at + 4 * 799:at + 4 * 800] = np.float32(np.nan).tobytes()
    bad = tmp_path / "nan.dawn"
    bad.write_bytes(bytes(blob))
    for argv in (["eval", "--model", str(model), "--out-dir",
                  str(tmp_path / "ev")],
                 ["train", "--epochs", "1", "--out", str(tmp_path / "m.dawm")]):
        assert cli.main([*argv, "--data", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite PSD bin" in err
        assert f"offset {len(blob) - sim.SNAPSHOT.itemsize})" in err


def test_version_1_dataset_exits_2(tmp_path, workspace, capsys):
    # version 1 stored planar samples and a one-byte label: no reader left
    _, data, model = workspace
    blob = bytearray(data.read_bytes())
    struct.pack_into("<I", blob, 4, 1)
    old = tmp_path / "v1.dawn"
    old.write_bytes(bytes(blob))
    assert cli.main(["eval", "--model", str(model), "--data", str(old),
                     "--out-dir", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "dataset version 1" in err and "regenerate" in err
    assert not (tmp_path / "ev").exists()


def test_version_1_checkpoint_exits_2(tmp_path, workspace, capsys):
    # version 1 stored each parameter's name and dims: no reader left
    _, data, model = workspace
    blob = bytearray(model.read_bytes())
    struct.pack_into("<I", blob, 4, 1)
    old = tmp_path / "v1.dawm"
    old.write_bytes(bytes(blob))
    assert cli.main(["eval", "--model", str(old), "--data", str(data),
                     "--out-dir", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "checkpoint version 1" in err and "retrain" in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("config_len", [2**31, 2**32 - 1])
def test_huge_checkpoint_config_length_exits_2(tmp_path, workspace, capsys,
                                               config_len):
    _, data, model = workspace
    blob = bytearray(model.read_bytes())
    struct.pack_into("<I", blob, 8, config_len)
    bad = tmp_path / "huge.dawm"
    bad.write_bytes(bytes(blob))
    assert cli.main(["eval", "--model", str(bad), "--data", str(data),
                     "--out-dir", str(tmp_path / "ev")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "truncated" in err and "offset 12" in err
    assert not (tmp_path / "ev").exists()


@pytest.fixture(scope="module")
def two_batches(tmp_path_factory):
    """A dataset whose test split is two scoring batches, and a checkpoint."""
    root = tmp_path_factory.mktemp("twobatch")
    data, model = root / "data.dawn", root / "model.dawm"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "7",
                     "--train", "16", "--val", "8",
                     "--test-per-class", "33"]) == 0
    assert cli.main(["train", "--data", str(data), "--epochs", "1",
                     "--batch", "8", "--out", str(model)]) == 0
    return data, model


def test_eval_files_do_not_depend_on_the_worker_count(tmp_path, two_batches,
                                                      monkeypatch):
    data, model = two_batches
    for workers in (1, 2):
        monkeypatch.setattr(evaluation, "_workers", lambda: workers)
        assert cli.main(["eval", "--model", str(model), "--data", str(data),
                         "--out-dir", str(tmp_path / str(workers))]) == 0
    for name in ("roc.csv", "confusion.csv"):
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes())
    one, two = (json.loads((tmp_path / d / "report.json").read_text())
                for d in "12")
    assert one.pop("volatile").keys() == two.pop("volatile").keys()
    assert one == two


def test_eval_error_on_the_worker_thread_exits_2(tmp_path, two_batches,
                                                 monkeypatch, capsys):
    data, model = two_batches
    main, losses = threading.current_thread(), evaluation.per_sample_losses

    def failing(*args):
        if threading.current_thread() is not main:
            raise NumericalError(
                f"raised on {threading.current_thread().name}")
        return losses(*args)

    monkeypatch.setattr(evaluation, "per_sample_losses", failing)
    monkeypatch.setattr(evaluation, "_workers", lambda: 2)
    out_dir = tmp_path / "ev"
    before = threading.active_count()
    assert cli.main(["eval", "--model", str(model), "--data", str(data),
                     "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "raised on" in err
    assert f"raised on {main.name}" not in err
    assert not (out_dir / "report.json").exists()
    assert threading.active_count() == before


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a matrix product's bits depend on how many BLAS threads split it, so
    # the dawnet entry point pins one whatever the environment holds
    data = tmp_path / "data.dawn"
    assert cli.main(["gen-data", "--out", str(data), "--seed", "5",
                     "--train", "128", "--val", "32",
                     "--test-per-class", "16"]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    checkpoints = set()
    for threads in (None, "1", "2"):
        out = tmp_path / f"threads-{threads}.dawm"
        subprocess.run(
            [sys.executable, "-m", "dawnet.cli", "train", "--data", str(data),
             "--epochs", "2", "--seed", "5", "--out", str(out)],
            env=env if threads is None
            else dict(env, OPENBLAS_NUM_THREADS=threads),
            check=True, capture_output=True, timeout=300)
        checkpoints.add(out.read_bytes())
    assert len(checkpoints) == 1
