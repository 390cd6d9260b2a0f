"""Paired benchmark runs of two commits, written to one BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_8.json --seed 200

Each commit's committed files are extracted with ``git archive`` into a
fresh directory, as the benchmark itself is run, so uncommitted edits and
build leftovers of the working tree play no part. The run length, the
workloads, and each end-to-end metric's bound and better direction come
from the parent's BENCHMARK.json: the side being judged does not set its
own bar. For every workload, pair i of ten runs
``perfbench/run.py --trace 0 --seed <seed + i>`` once on each side; the
side that runs first alternates, starting with the parent. Method:
Kalibera & Jones, "Rigorous Benchmarking in Reasonable Time" (ISMM 2013).
The file is rewritten after every pair, so an interrupted session keeps
the pairs it finished. Exits 2 when a run could not be made at all.

The change is named by the git tree of its ``src/``: a BENCH file
committed together with its change cannot name the commit that holds it,
so CHANGE is usually a stand-in commit of the staged tree
(``git commit-tree $(git write-tree) -p HEAD -m pairs``) that no ref
keeps, while the committed change carries the same ``src/`` tree.

Schema of the output file (``"schema": "bench-pairs/1"``)::

    {"schema": "bench-pairs/1",
     "parent": {"commit": sha, "src_tree": sha},    # git tree of src/
     "change": {"src_tree": sha},
     "seconds": S, "pairs": 10,        # S: the parent's run_seconds
     "workloads": {
       "<workload>": {
         "seeds": [seed of pair i, ...],
         "first": ["parent" | "change" of pair i, ...],
         "env": [distinct `env` lines of all runs, as objects],
         "runs": {"parent": [{"correct", "attempted", "failed"}, ...],
                  "change": [...]},
         "metrics": {
           "<metric>": {
             "unit": str, "better": "lower" | "higher",
             "bound": float | null,     # the parent's, end-to-end only
             "parent": {"values": [...], "q1", "median", "q3"},
             "change": {"values": [...], "q1", "median", "q3"},
             "wins": int, "losses": int, "ties": int,  # change vs parent
             "rel_change": change median / parent median - 1,
             "gain": wins >= 9 of the ten pairs and the medians differ,
                     in the better direction, by more than the parent's
                     q3 - q1,
             "within_bound": change median no worse than the parent's by
                             more than bound (null without a bound)}}}}}

A value a run did not produce is null and takes no part in the
statistics; a pair with a null on either side is neither a win nor a loss.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from checkout import exit_on_sigterm, extract  # noqa: E402

SIDES = ("parent", "change")
PAIRS = 10
GAIN_WINS = 9


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: int):
    """(env, result) of one untraced benchmark run in ``checkout``.

    The run leads a process group of its own: its workload processes are
    killed with it when this is interrupted, so none of them writes into
    the work directory after it is removed.
    """
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        # not yet reaped, so the group still bears the run's pid
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited "
                           f"{proc.returncode}: {stderr.strip()}")
    return json.loads(lines[-2].removeprefix("env ")), json.loads(lines[-1])


def spread(values) -> dict:
    present = [v for v in values if v is not None]
    if len(present) < 2:
        q1 = mid = q3 = present[0] if present else None
    else:
        q1, mid, q3 = quantiles(present, n=4, method="inclusive")
    return {"values": values, "q1": q1, "median": mid, "q3": q3}


def compare(parent, change, better, bound) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = losses = 0
    for p, c in zip(parent, change):
        if p is None or c is None or p == c:
            continue
        if sign * (c - p) < 0:
            wins += 1
        else:
            losses += 1
    a, b = spread(parent), spread(change)
    pm, cm = a["median"], b["median"]
    known = pm is not None and cm is not None
    return {
        "parent": a, "change": b, "wins": wins, "losses": losses,
        "ties": len(parent) - wins - losses,
        "rel_change": cm / pm - 1.0 if known and pm != 0 else None,
        "gain": (known and wins >= GAIN_WINS
                 and sign * (pm - cm) > a["q3"] - a["q1"]),
        "within_bound": (None if bound is None or not known
                         else sign * (cm - pm) <= bound * abs(pm)),
    }


def summarize(results, declared) -> dict:
    """Per-metric statistics of one workload's finished pairs."""
    names = sorted({m for side in SIDES for r in results[side]
                    for m in r["metrics"]})
    metrics = {}
    for name in names:
        values = {side: [r["metrics"].get(name, {}).get("value")
                         for r in results[side]] for side in SIDES}
        unit = next(r["metrics"][name]["unit"] for side in SIDES
                    for r in results[side] if name in r["metrics"])
        spec = declared.get(name, {})
        better, bound = spec.get("better", "lower"), spec.get("bound")
        metrics[name] = {"unit": unit, "better": better, "bound": bound,
                         **compare(values["parent"], values["change"],
                                   better, bound)}
    return metrics


def benchmark_spec(checkouts):
    """(run seconds, workload names, end-to-end metrics by name) from the
    parent's BENCHMARK.json."""
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    return (spec["run_seconds"], [w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]})


def main(argv=None):
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
                   for side, ref in zip(SIDES, (args.parent, args.change))}
        checkouts = {side: work / side for side in SIDES}
        for side, sha in commits.items():
            extract(sha, checkouts[side])
        seconds, workloads, declared = benchmark_spec(checkouts)
        doc = {"schema": "bench-pairs/1",
               "parent": {"commit": commits["parent"],
                          "src_tree": git("rev-parse",
                                          f"{commits['parent']}:src")},
               "change": {"src_tree": git("rev-parse",
                                          f"{commits['change']}:src")},
               "seconds": seconds, "pairs": PAIRS, "workloads": {}}
        for workload in workloads:
            entry = doc["workloads"][workload] = {
                "seeds": [], "first": [], "env": [],
                "runs": {side: [] for side in SIDES}}
            results = {side: [] for side in SIDES}
            for i in range(PAIRS):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    env, result = run_once(checkouts[side], workload, seed,
                                           seconds)
                    results[side].append(result)
                    entry["runs"][side].append(
                        {k: result[k] for k in ("correct", "attempted",
                                                "failed")})
                    if env not in entry["env"]:
                        entry["env"].append(env)
                entry["seeds"].append(seed)
                entry["first"].append(order[0])
                entry["metrics"] = summarize(results, declared)
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}",
                      file=sys.stderr)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
