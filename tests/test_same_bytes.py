"""The comparator of ``tools/same_bytes.py``: what counts as the same file."""

import importlib.util
import json
import struct
from pathlib import Path

import numpy as np

from dawnet import datafile
from dawnet.model import DualDomainAutoencoder, ModelConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def _sides(tmp_path):
    sides = tmp_path / "parent", tmp_path / "change"
    for d in sides:
        d.mkdir()
    return sides


def _params():
    return DualDomainAutoencoder(ModelConfig(), seed=11).named_parameters()


def test_one_ulp_in_one_parameter_is_named(tmp_path):
    parent, change = _sides(tmp_path)
    config = {"threshold": {"value": 0.5}}
    params = dict(_params())
    datafile.write_checkpoint(parent / "model.dawm", config, params.items())
    moved = params["attention.w_v"].copy()
    moved[2, 3, 0] = np.nextafter(moved[2, 3, 0], np.inf)
    datafile.write_checkpoint(change / "model.dawm", config,
                              {**params, "attention.w_v": moved}.items())
    [(name, difference)] = same_bytes.compare_dirs(parent, change)
    assert name == "model.dawm"
    ulp = abs(np.spacing(params["attention.w_v"][2, 3, 0]))
    assert difference == f"attention.w_v max |diff| {ulp:.3g}"


def test_unreadable_checkpoint_is_different(tmp_path):
    # a version-1 checkpoint from a parent this tree has no reader for
    parent, change = _sides(tmp_path)
    (parent / "model.dawm").write_bytes(
        b"DAWM" + struct.pack("<II", 1, 2) + b"{}" + struct.pack("<I", 0))
    datafile.write_checkpoint(change / "model.dawm", {}, _params())
    [(name, difference)] = same_bytes.compare_dirs(parent, change)
    assert name == "model.dawm"
    assert "checkpoint version 1" in difference and "retrain" in difference


def test_json_differences_only_in_volatile_are_the_same(tmp_path):
    parent, change = _sides(tmp_path)
    doc = {"auc": 0.75, "confusion": {"tn": 3}}
    for side, seconds in ((parent, 1.25), (change, 9.5)):
        (side / "report.json").write_text(json.dumps(
            {**doc, "volatile": {"elapsed_s": seconds}}))
        (side / "roc.csv").write_text("fpr,tpr,thr\n0.0,0.0,inf\n")
    assert same_bytes.compare_dirs(parent, change) == [
        ("report.json", None), ("roc.csv", None)]
    # a value outside volatile, or a volatile key, that differs does not
    (change / "report.json").write_text(json.dumps(
        {**doc, "auc": 0.7, "volatile": {"elapsed_s": 1.25}}))
    (change / "other.json").write_text(json.dumps({"volatile": {"a": 1}}))
    (parent / "other.json").write_text(json.dumps({"volatile": {"b": 1}}))
    assert same_bytes.compare_dirs(parent, change) == [
        ("other.json", "volatile keys differ: ['b'] against ['a']"),
        ("report.json", "differs outside volatile in auc"),
        ("roc.csv", None)]


def test_printed_times_are_ignored():
    header = f"{'accuracy':>10} {'f1':>10} {'auc':>10} {'time_s':>10}"
    a = f"{header}\n    0.5000     0.6000     0.7000     0.0123\n"
    b = f"{header}\n    0.5000     0.6000     0.7000     0.0456\n"
    c = f"{header}\n    0.5000     0.6000     0.7100     0.0123\n"
    assert same_bytes.untimed(a) == same_bytes.untimed(b)
    assert same_bytes.untimed(a) != same_bytes.untimed(c)
