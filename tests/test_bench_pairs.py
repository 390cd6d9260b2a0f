"""The statistics of ``tools/bench_pairs.py``: pair wins and the gain rule;
and how both paired-run tools clean up when they are stopped."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_lower_is_better_gain():
    parent = [10.0, 11.0, 12.0, 10.5, 11.5]
    change = [6.0, 6.5, 7.0, 12.5, 6.2]
    got = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (got["wins"], got["losses"], got["ties"]) == (4, 1, 0)
    assert got["parent"]["median"] == 11.0 and got["change"]["median"] == 6.5
    assert (got["parent"]["q1"], got["parent"]["q3"]) == (10.5, 11.5)
    assert got["rel_change"] == pytest.approx(6.5 / 11.0 - 1.0)
    assert not got["gain"]          # 4 wins is below 9 of ten pairs
    assert got["within_bound"]
    # a gain needs nine wins, so fewer than nine pairs never show one
    assert not bench_pairs.compare(parent, [6.0] * 5, "lower", None)["gain"]
    assert bench_pairs.compare(parent * 2, [6.0] * 10, "lower", None)["gain"]
    nine = bench_pairs.compare(parent * 2, [6.0] * 9 + [12.0], "lower", None)
    assert nine["wins"] == 9 and nine["gain"]


def test_higher_is_better_bound_and_missing_values():
    parent = [1.0, 1.0, 1.0, None]
    change = [0.7, 0.7, 1.0, 0.9]
    got = bench_pairs.compare(parent, change, "higher", 0.1)
    assert (got["wins"], got["losses"], got["ties"]) == (0, 2, 2)
    assert got["parent"]["values"] == parent
    assert got["parent"]["median"] == 1.0
    assert not got["gain"] and got["within_bound"] is False


def test_spread_of_a_gain_within_the_parent_iqr_is_no_gain():
    parent = [10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
    change = [v - 1.0 for v in parent]
    got = bench_pairs.compare(parent, change, "lower", 0.25)
    assert got["wins"] == 10 and not got["gain"]


def test_spec_comes_from_the_parent(tmp_path):
    # a change that loosens its own bound, shortens its runs or drops a
    # workload is still judged by the parent's declaration
    spec = {"run_seconds": 20,
            "workloads": [{"name": "train"}, {"name": "detect"}],
            "end_to_end": [{"name": "eval_ms_per_snapshot",
                            "better": "lower", "bound": 0.25}]}
    loose = {"run_seconds": 2, "workloads": [{"name": "detect"}],
             "end_to_end": [{"name": "eval_ms_per_snapshot",
                             "better": "higher", "bound": 10.0}]}
    checkouts = {"parent": tmp_path / "p", "change": tmp_path / "c"}
    for side, doc in (("parent", spec), ("change", loose)):
        checkouts[side].mkdir()
        (checkouts[side] / "BENCHMARK.json").write_text(json.dumps(doc))
    seconds, workloads, declared = bench_pairs.benchmark_spec(checkouts)
    assert (seconds, workloads) == (20, ["train", "detect"])
    assert declared["eval_ms_per_snapshot"]["bound"] == 0.25
    run = {"metrics": {"eval_ms_per_snapshot": {"unit": "ms", "value": 1.0}}}
    worse = {"metrics": {"eval_ms_per_snapshot": {"unit": "ms", "value": 2.0}}}
    got = bench_pairs.summarize({"parent": [run], "change": [worse]},
                                declared)["eval_ms_per_snapshot"]
    assert got["bound"] == 0.25 and got["within_bound"] is False


# loads a tool, replaces the first thing its main does after making its
# work directory with a step that sends the process SIGTERM, and runs main
STOPPED_RUN = """
import glob, importlib.util, os, signal, sys, time
spec = importlib.util.spec_from_file_location("tool", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

def step(*args):
    print(*glob.glob(os.path.join(os.environ["TMPDIR"], sys.argv[2] + "*")))
    sys.stdout.flush()
    os.kill(os.getpid(), signal.SIGTERM)
    time.sleep(60)

setattr(tool, sys.argv[3], step)
sys.exit(tool.main(sys.argv[4:]))
"""


# loads bench_pairs.py with stub checkouts whose perfbench/run.py starts a
# grandchild that keeps writing into the work directory, and then sends the
# tool SIGTERM while it waits for the run; the run's pid and its process
# group go to $STUB_PIDS
STOPPED_BENCHMARK = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tool", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)

RUN = '''
import os, signal, subprocess, sys, time
from pathlib import Path
subprocess.Popen([sys.executable, "perfbench/writer.py"])
Path(os.environ["STUB_PIDS"]).write_text(f"{os.getpid()} {os.getpgid(0)}")
while not Path("late-0").exists():
    time.sleep(0.01)
os.kill(os.getppid(), signal.SIGTERM)
time.sleep(60)
'''

WRITER = '''
import time
from pathlib import Path
for i in range(6000):
    try:
        Path(f"late-{i}").write_text("x")
    except OSError:
        pass
    time.sleep(0.01)
'''

def extract(commit, dest):
    (dest / "perfbench").mkdir(parents=True)
    (dest / "perfbench" / "run.py").write_text(RUN)
    (dest / "perfbench" / "writer.py").write_text(WRITER)
    (dest / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "train"}],
         "end_to_end": []}))
    print(dest.parent)
    sys.stdout.flush()

tool.git = lambda *args: "0" * 40
tool.extract = extract
sys.exit(tool.main(sys.argv[2:]))
"""


def _live_members(group):
    """The pids of the processes of ``group`` that have not ended."""
    live = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except OSError:             # it ended while the table was read
            continue
        if int(pgrp) == group and state not in ("Z", "X"):
            live.append(int(stat.parent.name))
    return live


@pytest.mark.parametrize("tool,prefix,first,argv", [
    ("bench_pairs.py", "bench-pairs-", "git",
     ["HEAD", "HEAD", "--out", "b.json", "--seed", "0"]),
    ("same_bytes.py", "same-bytes-", "extract", ["HEAD", "HEAD"]),
    ("bench_pairs.py", "bench-pairs-", None,
     ["HEAD", "HEAD", "--out", "b.json", "--seed", "0"])],
    ids=["bench_pairs", "same_bytes", "bench_pairs_grandchild"])
def test_sigterm_removes_the_work_directory(tmp_path, tool, prefix, first,
                                            argv):
    # with no first step to replace, the signal comes from a benchmark run
    # whose grandchild is still writing into the work directory
    if first is None and not Path("/proc/self/stat").is_file():
        pytest.skip("process groups are read from /proc")
    harness = ([STOPPED_RUN, str(TOOL.parent / tool), prefix, first]
               if first else [STOPPED_BENCHMARK, str(TOOL.parent / tool)])
    pids = tmp_path / "pids"
    proc = subprocess.run(
        [sys.executable, "-c", *harness, *argv],
        cwd=tmp_path, env=dict(os.environ, TMPDIR=str(tmp_path),
                               STUB_PIDS=str(pids)),
        capture_output=True, text=True, timeout=60)
    made = set(proc.stdout.split())
    assert len(made) == 1
    work = Path(made.pop())
    assert work.parent == tmp_path and not work.exists()
    assert proc.returncode == 128 + 15
    if first is None:
        run, group = map(int, pids.read_text().split())
        assert group == run         # the run leads a group of its own
        for _ in range(100):        # a killed process ends in a moment
            if not _live_members(group):
                break
            time.sleep(0.05)
        assert _live_members(group) == []
        assert not work.exists()
