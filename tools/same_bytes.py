"""Same bytes, parent against change: one fixed pipeline on two commits.

    python3 tools/same_bytes.py PARENT CHANGE

Each commit's committed files are extracted with ``git archive`` into a
fresh directory, so uncommitted edits play no part. The same pipeline runs
on each side in subprocesses at one BLAS thread, with the same relative
paths, so that the manifests can match:

    gen-data --seed 5 --train 64 --val 32 --test-per-class 32
    train --epochs 2 --batch 16, of full and of vanilla
    eval of both checkpoints
    ablate --epochs 1 --batch 16

Then every file the two runs wrote is compared, and one line per file says
``same`` or ``DIFFERENT``: JSON files outside their ``"volatile"`` block,
whose keys must match too, and every other file byte for byte. For a
checkpoint that differs, each parameter that differs is named with its
largest absolute difference, and a checkpoint that this tree cannot read,
such as one of an older format version, is reported with the reader's
message. The lines each command printed are compared
too, apart from the ``time_s`` column of ``eval`` and ``ablate``. Exits 0
when everything is the same, 1 when something differs, and 2 when a
pipeline could not be run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "src")]

import numpy as np  # noqa: E402

from checkout import exit_on_sigterm, extract  # noqa: E402
from dawnet import datafile  # noqa: E402
from dawnet.errors import FormatError  # noqa: E402

SIDES = ("parent", "change")
TRAIN = ("--epochs", "2", "--batch", "16")
PIPELINE = (
    ("gen-data", "--seed", "5", "--train", "64", "--val", "32",
     "--test-per-class", "32", "--out", "data.dawn"),
    ("train", "--data", "data.dawn", *TRAIN, "--ablation", "full",
     "--out", "full.dawm"),
    ("train", "--data", "data.dawn", *TRAIN, "--ablation", "vanilla",
     "--out", "vanilla.dawm"),
    ("eval", "--model", "full.dawm", "--data", "data.dawn",
     "--out-dir", "eval-full"),
    ("eval", "--model", "vanilla.dawm", "--data", "data.dawn",
     "--out-dir", "eval-vanilla"),
    ("ablate", "--data", "data.dawn", "--epochs", "1", "--batch", "16",
     "--out-dir", "ablate"),
)


class RunError(Exception):
    pass


def run_pipeline(checkout: Path, work: Path) -> list:
    """Run PIPELINE with ``checkout``'s dawnet in ``work``; returns what
    each command printed."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    printed = []
    for argv in PIPELINE:
        proc = subprocess.run([sys.executable, "-m", "dawnet.cli", *argv],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise RunError(f"{checkout.name}: dawnet {argv[0]} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
        printed.append(proc.stdout)
    return printed


def untimed(text: str) -> list:
    """Printed lines without the last column of the rows under a header
    that ends in ``time_s``: the only wall-clock values dawnet prints."""
    lines, timed = [], False
    for line in text.splitlines():
        if timed:
            line = line.rsplit(None, 1)[0]
        timed = timed or line.split()[-1:] == ["time_s"]
        lines.append(line)
    return lines


def _json_difference(a: Path, b: Path):
    # every JSON file dawnet writes is one object
    docs = [json.loads(p.read_text(encoding="utf-8")) for p in (a, b)]
    volatile = [sorted(d.pop("volatile", {})) for d in docs]
    keys = sorted(k for k in {*docs[0], *docs[1]}
                  if docs[0].get(k) != docs[1].get(k))
    if keys:
        return f"differs outside volatile in {', '.join(keys)}"
    if volatile[0] != volatile[1]:
        return f"volatile keys differ: {volatile[0]} against {volatile[1]}"
    return None


def _checkpoint_difference(a: Path, b: Path) -> str:
    try:
        (cfg_a, values_a), (cfg_b, values_b) = (datafile.read_checkpoint(p)
                                                for p in (a, b))
    except FormatError as exc:
        # such as the other commit's checkpoint version
        return f"unreadable by this tree's reader: {exc}"
    found = [] if cfg_a == cfg_b else ["config block"]
    for name in values_a.dtype.names:
        x, y = values_a[name], values_b[name]
        if not np.array_equal(x, y):
            found.append(f"{name} max |diff| {np.max(np.abs(x - y)):.3g}")
    return "; ".join(found) or "bytes differ"


def file_difference(a: Path, b: Path):
    """None when the two files count as the same, else what differs."""
    if a.suffix == ".json":
        return _json_difference(a, b)
    if a.read_bytes() == b.read_bytes():
        return None
    if a.suffix == ".dawm":
        return _checkpoint_difference(a, b)
    return "bytes differ"


def compare_dirs(parent: Path, change: Path) -> list:
    """(relative path, None or what differs) of every file under either
    directory, in path order."""
    names = sorted({p.relative_to(d).as_posix()
                    for d in (parent, change)
                    for p in d.rglob("*") if p.is_file()})
    rows = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            side = "parent" if a.is_file() else "change"
            rows.append((name, f"only in {side}"))
        else:
            rows.append((name, file_difference(a, b)))
    return rows


def compare_printed(parent: list, change: list) -> list:
    """(``stdout of <command> <output flag> <output>``, None or "lines
    differ") per command."""
    return [(f"stdout of {' '.join(argv[:1] + argv[-2:])}",
             None if untimed(a) == untimed(b) else "lines differ")
            for argv, a, b in zip(PIPELINE, parent, change)]


def main(argv=None) -> int:
    exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="same-bytes-"))
    try:
        printed = {}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            extract(commit, work / side / "src-tree")
            printed[side] = run_pipeline(work / side / "src-tree",
                                         work / side / "run")
        rows = (compare_dirs(work / "parent" / "run", work / "change" / "run")
                + compare_printed(printed["parent"], printed["change"]))
    except (RunError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, difference in rows:
        print(f"same       {name}" if difference is None
              else f"DIFFERENT  {name}: {difference}")
    differing = sum(d is not None for _, d in rows)
    print(f"{len(rows) - differing} of {len(rows)} the same")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
