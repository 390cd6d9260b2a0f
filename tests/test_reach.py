"""Every function in ``src/`` is run by a command, or says why not.

A fixed pipeline of all four commands runs in a fresh interpreter whose
profiler is on before ``dawnet`` is imported, on every thread. A function
counts as reached when a frame of its code object was entered. Code
objects are matched to the ``def`` statements of ``src/dawnet`` by file
and first line; for a decorated function that is its first decorator's
line, as ``co_firstlineno`` has it.

A function that no command reaches belongs in ``tests/`` (see
``tests/oracles.py``) or nowhere, unless ``UNREACHED`` names it with the
reason it stays. An entry that the pipeline does reach is stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNREACHED = {
    "autodiff._consumed":
        "error path: a second backward through a consumed graph",
    "cli._diverged": "error path: training that diverges",
    "errors.FormatError.__init__":
        "error path: a malformed dataset or checkpoint file",
    "backend.dwt_fw": "wrapped by name in perfbench/tracing.py",
    "backend.dwt_gx": "wrapped by name in perfbench/tracing.py",
    "backend.dwt_gk": "wrapped by name in perfbench/tracing.py",
    "evaluation.time_inference": "wrapped by name in perfbench/tracing.py",
    "evaluation.score": "called by perfbench/workload.py",
    "model.DualDomainAutoencoder.named_parameters":
        "called by perfbench/workload.py",
}

PIPELINE = (
    ("gen-data", "--out", "d.dawn", "--train", "64", "--val", "130",
     "--test-per-class", "70"),
    ("train", "--data", "d.dawn", "--epochs", "1", "--batch", "16",
     "--out", "m.dawm"),
    ("eval", "--model", "m.dawm", "--data", "d.dawn", "--out-dir", "eval"),
    ("ablate", "--data", "d.dawn", "--epochs", "1", "--batch", "32",
     "--out-dir", "ablate"),
)

# profiles every thread, runs the pipeline in-process and prints the
# (file, first line) of each code object entered
RUN = """
import json, sys, threading
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

threading.setprofile(profile)
sys.setprofile(profile)
from dawnet import cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"dawnet {argv[0]} failed")
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno] for c in seen]))
"""


def _defs():
    """(file, first line) -> dotted name of every function in src/dawnet."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = (child.decorator_list or [child])[0].lineno
                    found[(path, first)] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for file in sorted((SRC / "dawnet").glob("*.py")):
        path = os.path.realpath(file)
        walk(ast.parse(file.read_text(encoding="utf-8")), path, file.stem)
    return found


def _reached(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", RUN, json.dumps(PIPELINE)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return {(os.path.realpath(file), line)
            for file, line in json.loads(out.stdout.splitlines()[-1])}


def test_every_function_in_src_is_reached_or_listed(tmp_path):
    defs = _defs()
    reached = _reached(tmp_path)
    unreached = {name for key, name in defs.items() if key not in reached}
    assert sorted(unreached - UNREACHED.keys()) == [], (
        "no command reaches these; move them to tests/ or delete them")
    assert sorted(UNREACHED.keys() - unreached) == [], (
        "listed as unreached, but a command reaches them or they are gone")
