"""Self-tests of the benchmark. Smoke-size: about four minutes on two cores.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from workload import Session, dawnet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench" / "tests"

# Spans that must have calls in each phase. Each phase reaches some layers
# only through a name a wrapper could miss: eval and score call
# per_sample_losses as imported into evaluation, gen reaches
# generate_snapshot through the simulate globals, and every kernel is read
# from backend at call time.
FORWARD = ("model.encode", "model.fuse", "model.decode", "backend.conv1d_fw",
           "backend.tconv1d_fw", "backend.dwt_fw",
           "training.per_sample_losses", "simulate.model_inputs")
EXERCISED = {
    "gen": ("cli.main", "simulate.generate_dataset",
            "simulate.generate_snapshot", "simulate.synthesize_waveform",
            "simulate.welch_psd_db", "datafile.write_dataset"),
    "train": FORWARD + (
        "cli.main", "datafile.read_dataset", "datafile.write_checkpoint",
        "training.train", "training.composite_loss", "training.Adam.step",
        "training.calibrate_threshold", "wavelet.wavelet_loss",
        "autodiff.backward", "backend.conv1d_gx", "backend.conv1d_gw",
        "backend.tconv1d_gx", "backend.tconv1d_gw", "backend.dwt_gx"),
    "eval": FORWARD + (
        "cli.main", "datafile.read_dataset", "datafile.read_checkpoint",
        "evaluation.evaluate", "evaluation.auc", "evaluation.roc_curve",
        "evaluation.time_inference", "evaluation.write_report_files"),
    "score": FORWARD + ("evaluation.score",),
}


def scratch(name):
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, env_line, last = proc.stdout.strip().splitlines()
    env = json.loads(env_line.removeprefix("env "))
    assert env["dawnet_backend"] == "numpy"
    assert int(env["blas_threads"]) <= env["nproc"]
    out = json.loads(last)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return out["metrics"]


def assert_matches_spec(metrics, kind):
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_are_all_emitted(name):
    metrics = result_of(bench("--workload", name, "--seed", 0,
                              "--seconds", 1, "--trace", 0))
    assert_matches_spec(metrics, "end_to_end")
    assert all(metrics[m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run(name):
    metrics = result_of(bench("--workload", name, "--seed", 0,
                              "--seconds", 1, "--trace", 1))
    assert_matches_spec(metrics, "per_layer")
    value = {k: v["value"] for k, v in metrics.items()}
    assert 0 < value["trace.layer_self_s"] <= value["trace.traced_s"]
    assert value["trace.overhead_s"] == pytest.approx(
        value["trace.traced_s"] - value["trace.untraced_s"])
    assert all(value[f"{module}.errors"] == 0 for module in tracing.MODULES)

    calls = {}
    spans = ROOT / ".perfbench" / f"spans-{name}-seed0.jsonl"
    with open(spans, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            key = (span["phase"], span["name"])
            calls[key] = calls.get(key, 0) + 1
    missing = [(phase, span) for phase, names in EXERCISED.items()
               for span in names if not calls.get((phase, span))]
    assert not missing, f"wrappers that recorded no calls: {missing}"


def test_bad_inputs_count_as_failed_operations():
    work = scratch("accounting")
    dawnet("gen-data", "--out", work / "data.dawn", "--seed", 5,
           "--train", 64, "--val", 8, "--test-per-class", 8)
    dawnet("train", "--data", work / "data.dawn", "--epochs", 1,
           "--out", work / "model.dawm")
    blob = (work / "data.dawn").read_bytes()
    (work / "cut.dawn").write_bytes(blob[:len(blob) // 2])
    session = Session(work, seed=5)

    def eval_on(data):
        return lambda: dawnet("eval", "--model", work / "model.dawm",
                              "--data", data, "--out-dir", work / "bad")

    assert session.op("eval", eval_on(work / "cut.dawn"), print) is None
    # escapes dawnet as IsADirectoryError rather than an exit code
    assert session.op("eval", eval_on(work), print) is None
    session.eval()
    session.score(0)
    assert (session.attempted, session.failed) == (4, 2)
    assert session.end_to_end()["success_rate"][0] == 0.5


def test_refuses_to_run_without_the_program():
    bare = scratch("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "train", "--seed", 0, "--seconds", 1,
                 "--trace", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
