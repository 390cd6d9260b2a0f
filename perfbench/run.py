"""dawnet benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train|detect --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; dawnet is imported from ./src.
Inputs are made from --seed in a first process. With --trace 0 the set-up is
timed in three fresh processes and the workload runs in the last of them; the
last line of stdout is the end-to-end result. With --trace 1 the workload
runs once untraced and once traced, each in its own process, and the last
line holds the per-layer metrics, the tracing overhead and the untraced
90th-percentile latencies. The line before it records the environment.
Exits 1 when an operation failed or a check did not hold, and 2 when the
run could not be made at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3              # processes whose set-up time is measured
DEADLINE_S = 170        # the whole run, all processes included


class RunError(Exception):
    pass


def child_env():
    """Pinned: one BLAS thread, and the numpy kernels.

    With a BLAS thread per core, a neighbour's load on either core of a
    shared machine stalls every BLAS call; that doubled `dawnet eval` times
    between runs on two cores, where one thread is as fast.
    """
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1", DAWNET_BACKEND="numpy")


class Launcher:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, role, name, trace=False):
        """Run workload.py in a fresh process; returns (start, result)."""
        out = self.work / f"{name}.json"
        cmd = [sys.executable, str(HERE / "workload.py"), role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--work", str(self.work),
               "--out", str(out)] + (["--trace"] if trace else [])
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                  timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            raise RunError(f"{name} did not finish within the run deadline")
        if proc.returncode != 0:
            raise RunError(f"{name} exited with {proc.returncode}")
        return start, json.loads(out.read_text())

    def untraced(self):
        starts = [self.child("setup", f"setup{i}") for i in range(SETUPS - 1)]
        start, run = self.child("measure", "measure")
        setup_s = median(r["ready"] - t for t, r in [*starts, (start, run)])
        run["metrics"]["setup_s"] = (setup_s, "s")
        return run

    def traced(self):
        _, plain = self.child("measure", "plain")
        _, run = self.child("measure", "traced", trace=True)
        spans = self.work / "traced.spans.jsonl"
        kept = ROOT / ".perfbench" / (f"spans-{self.args.workload}"
                                      f"-seed{self.args.seed}.jsonl")
        shutil.move(spans, kept)
        overhead = run["op_s"] - plain["op_s"]
        run["metrics"] = dict(run.pop("layers"), **plain["tails"], **{
            "trace.untraced_s": (plain["op_s"], "s"),
            "trace.traced_s": (run["op_s"], "s"),
            "trace.overhead_s": (overhead, "s"),
            "trace.overhead_share": (overhead / plain["op_s"], "ratio"),
        })
        run["attempted"] += plain["attempted"]
        run["failed"] += plain["failed"]
        return run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("train", "detect"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "dawnet" / "__init__.py").is_file():
        print(f"error: no dawnet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher(args, work)
    try:
        launcher.child("prepare", "prepare")
        run = launcher.traced() if args.trace else launcher.untraced()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run["metrics"].items()}
    correct = run["failed"] == 0 and all(
        m["value"] is not None for m in metrics.values())
    print("env " + json.dumps(run["env"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
