"""One process of the benchmark; run.py starts it, once per role.

  prepare  make the inputs from the seed: a dataset with `dawnet gen-data`
           and a checkpoint with `dawnet train` (not timed)
  setup    import dawnet, read the dataset, build the model and bank from
           the checkpoint, record when that finished, exit
  measure  set up as above, run the workload's operations in a closed loop
           with one caller, check each result, write the metrics

Every workload runs all four phases, so that every end-to-end metric is
measured on every workload: the phases a workload is about get
``rate x --seconds`` operations, the others a fixed light pass. The
operation counts depend only on the workload and --seconds, so two commits
do the same work and the traced run repeats the untraced one.
"""

import argparse
import importlib.util
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dawnet import backend, cli, datafile, evaluation, training  # noqa: E402
from tracing import Tracer, layer_metrics, patch  # noqa: E402

DATASET = (256, 64, 192)      # train, validation, test per class
EPOCHS = 2                    # of every `dawnet train`, batch 64
GEN_COUNTS = (16, 4, 8)       # train, validation, test per class per gen-data
PHASES = ("gen", "train", "eval", "score")
LIGHT = {"gen": 40, "train": 4, "eval": 6, "score": 300}
# operations per second of --seconds in a workload's own phases, sized so
# that the parent commit spends about --seconds in them on two x86 cores
FOCUS = {
    "train": {"train": 0.4},
    "detect": {"eval": 0.5, "score": 90.0},
}
TOL = 1e-9                    # relative for losses, absolute for AUCs


def op_counts(workload, seconds):
    counts = dict(LIGHT)
    for phase, rate in FOCUS[workload].items():
        counts[phase] = max(LIGHT[phase], round(rate * seconds))
    return counts


class OpFailed(Exception):
    pass


def dawnet(*argv):
    """`dawnet <argv>` in-process; a non-zero exit is a failure."""
    try:
        rc = cli.main([str(a) for a in argv])
    except SystemExit as exc:     # argparse rejects bad flags this way
        rc = exc.code
    if rc != 0:
        raise OpFailed(f"dawnet {argv[0]} exited with {rc}")


def expect(ok, what):
    if not ok:
        raise OpFailed(f"check failed: {what}")


def close(a, b):
    return math.isclose(a, b, rel_tol=TOL, abs_tol=0.0)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dawnet_backend": backend.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def prepare(work, seed):
    n_train, n_val, n_test = DATASET
    dawnet("gen-data", "--out", work / "data.dawn", "--seed", seed,
           "--train", n_train, "--val", n_val, "--test-per-class", n_test)
    dawnet("train", "--data", work / "data.dawn", "--epochs", EPOCHS,
           "--out", work / "model.dawm")


class Session:
    """Inputs, the detector built from them, and the ledger of operations."""

    def __init__(self, work, seed, tracer=None):
        self.work = work
        self.seed = seed
        self.tracer = tracer
        self.bundle = datafile.read_dataset(work / "data.dawn")
        (self.model, _, self.lambda1, self.lambda2,
         self.bank) = cli._load_checkpoint(work / "model.dawm")
        self.ready = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.op_s = 0.0
        self.phase_of_op = []
        self.samples = defaultdict(list)
        self.values = {}
        self._reference = None
        self._captured = {}
        self._steps = []

    # -- hooks the checks and the step timer need, on in every run ---------

    def install_hooks(self):
        def keep(key, fn):
            def wrapper(*args, **kwargs):
                self._captured[key] = out = fn(*args, **kwargs)
                return out
            return wrapper

        def stamp(fn):
            def step(opt):
                self._steps.append(time.perf_counter())
                return fn(opt)
            return step

        return [
            patch("dawnet.simulate", "generate_dataset",
                  lambda fn: keep("bundle", fn)),
            patch("dawnet.training", "train_and_calibrate",
                  lambda fn: keep("trained", fn)),
            patch("dawnet.training", "Adam.step", stamp),
        ]

    # -- accounting ---------------------------------------------------------

    def op(self, phase, call, check):
        """Time call(), then check its result untimed.

        Returns the seconds taken, or None when the call raised, exited
        non-zero or failed its check; each such operation counts once in
        ``failed`` and the run goes on.
        """
        self.attempted += 1
        self.phase_of_op.append(phase)
        tracer = self.tracer
        try:
            if tracer is not None:
                tracer.op = len(self.phase_of_op) - 1
            t0 = time.perf_counter()
            try:
                value = call()
            finally:
                seconds = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = -1
            self.op_s += seconds
            check(value)
        except Exception:   # an operation boundary: count it and go on
            self.failed += 1
            traceback.print_exc()
            return None
        return seconds

    # -- phases -------------------------------------------------------------

    def gen(self, i):
        out = self.work / "gen.dawn"
        n_train, n_val, n_test = GEN_COUNTS
        kept = n_train + n_val + 2 * n_test
        seconds = self.op(
            "gen",
            lambda: dawnet("gen-data", "--out", out,
                           "--seed", self.seed * 100_003 + 1 + i,
                           "--train", n_train, "--val", n_val,
                           "--test-per-class", n_test),
            lambda _: self.check_gen(out))
        if seconds is not None:
            self.samples["gen_ms_per_kept"].append(seconds * 1e3 / kept)

    def check_gen(self, path):
        made = self._captured.pop("bundle")
        back = datafile.read_dataset(path)
        n_train, n_val, n_test = GEN_COUNTS
        expect([len(back.train), len(back.validation), len(back.test)]
               == [n_train, n_val, 2 * n_test], "gen-data split counts")
        expect(all(s.label == 0 for s in (*back.train, *back.validation)),
               "train and validation splits are label 0")
        expect(sum(s.label for s in back.test) == n_test,
               "test split has one half per class")
        expect(tuple(back.norm_stats) == tuple(made.norm_stats),
               "normalization stats read back")
        for a, b in zip((*made.train, *made.validation, *made.test),
                        (*back.train, *back.validation, *back.test)):
            expect(np.array_equal(a.time_samples, b.time_samples)
                   and np.array_equal(a.psd_db, b.psd_db)
                   and (a.label, a.inr_db, a.cnr_db)
                   == (b.label, b.inr_db, b.cnr_db),
                   "snapshot read back equals the generated one")

    def train(self):
        out = self.work / "train.dawm"
        self._steps.clear()
        seconds = self.op(
            "train",
            lambda: dawnet("train", "--data", self.work / "data.dawn",
                           "--epochs", EPOCHS, "--out", out),
            lambda _: self.check_train(out))
        if seconds is not None:
            self.samples["train_cmd_s"].append(seconds)
            self.samples["train_step_ms"].extend(
                np.diff(self._steps) * 1e3)

    def check_train(self, path):
        trained = self._captured.pop("trained")
        expect(all(math.isfinite(v) for v in trained["history"]),
               "loss history is finite")
        model, threshold, lambda1, lambda2, bank = cli._load_checkpoint(path)
        saved = model.named_parameters()
        live = trained["model"].named_parameters()
        expect(len(saved) == len(live)
               and all(n == m and np.array_equal(a, b)
                       for (n, a), (m, b) in zip(saved, live)),
               "checkpoint reloads to the trained parameters")
        losses = training.per_sample_losses(
            model, self.bundle.validation, self.bundle.norm_stats, bank,
            lambda1, lambda2)
        expect(close(threshold.value, np.mean(losses) + np.std(losses)),
               "threshold is mu + sigma of the validation losses")
        self.values["train_final_loss"] = trained["history"][-1]

    def reference(self):
        """Batch scores of the test split, computed once, untimed."""
        if self._reference is None:
            self._reference = training.per_sample_losses(
                self.model, self.bundle.test, self.bundle.norm_stats,
                self.bank, self.lambda1, self.lambda2)
        return self._reference

    def eval(self):
        out = self.work / "eval"
        seconds = self.op(
            "eval",
            lambda: dawnet("eval", "--model", self.work / "model.dawm",
                           "--data", self.work / "data.dawn",
                           "--out-dir", out),
            lambda _: self.check_eval(out))
        if seconds is not None:
            self.samples["eval_ms_per_snapshot"].append(
                seconds * 1e3 / len(self.bundle.test))

    def check_eval(self, out):
        report = json.loads((out / "report.json").read_text())
        scores = self.reference()
        labels = np.array([s.label for s in self.bundle.test])
        expect(abs(report["auc"] - evaluation.auc(scores, labels))
               <= TOL, "report AUC equals the AUC of the scores")
        # and the AUC itself, by its definition over all pairs
        pos, neg = scores[labels == 1, None], scores[None, labels == 0]
        pairs = np.mean((pos > neg) + 0.5 * (pos == neg))
        expect(abs(report["auc"] - pairs) <= TOL,
               "report AUC equals the pairwise AUC")
        expect(sum(report["confusion"].values()) == len(labels),
               "confusion counts sum to the test size")
        self.values["detect_auc"] = report["auc"]

    def score(self, index):
        snap = self.bundle.test[index]
        seconds = self.op(
            "score",
            lambda: evaluation.score(self.model, snap, self.bundle.norm_stats,
                                     self.bank, self.lambda1, self.lambda2),
            lambda v: expect(close(v, self.reference()[index]),
                             "single-snapshot score equals its batch score"))
        if seconds is not None:
            self.samples["score1_ms"].append(seconds * 1e3)

    def run(self, counts):
        """Each phase's operations spread evenly over the run, so that a
        slow spell of a shared machine weighs on every metric alike."""
        order = list(range(len(self.bundle.test)))
        random.Random(self.seed).shuffle(order)
        do = {"gen": self.gen,
              "train": lambda i: self.train(),
              "eval": lambda i: self.eval(),
              "score": lambda i: self.score(order[i % len(order)])}
        for *_, phase, i in sorted(
                ((i + 0.5) / n, PHASES.index(phase), phase, i)
                for phase, n in counts.items() for i in range(n)):
            do[phase](i)

    # -- results ------------------------------------------------------------

    def end_to_end(self):
        """Every end-to-end metric except setup_s, which run.py measures."""
        def mid(name):
            return median(self.samples[name]) if self.samples[name] else None

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return {
            "peak_rss_mb": (rss_mb, "MB"),
            "success_rate": ((self.attempted - self.failed) / self.attempted,
                             "ratio"),
            "gen_ms_per_kept.p50": (mid("gen_ms_per_kept"), "ms"),
            "train_step_ms.p50": (mid("train_step_ms"), "ms"),
            "train_cmd_s": (mid("train_cmd_s"), "s"),
            "train_final_loss": (self.values.get("train_final_loss"), "loss"),
            "eval_ms_per_snapshot": (mid("eval_ms_per_snapshot"), "ms"),
            "score1_ms.p50": (mid("score1_ms"), "ms"),
            "detect_auc": (self.values.get("detect_auc"), "ratio"),
        }

    def tails(self):
        """90th percentiles, which run.py reports with the layers: on a
        shared machine they swing too far between runs to hold a bound."""
        out = {}
        for name in ("gen_ms_per_kept", "train_step_ms", "score1_ms"):
            data = self.samples[name]
            value = (quantiles(data, n=10, method="inclusive")[-1]
                     if len(data) > 1 else None)
            out[f"{name}.p90"] = (value, "ms")
        return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", choices=tuple(FOCUS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.role == "prepare":
        prepare(args.work, args.seed)
        result = {}
    else:
        tracer = Tracer() if args.trace else None
        session = Session(args.work, args.seed, tracer)
        result = {"ready": session.ready}
        if args.role == "measure":
            counts = op_counts(args.workload, args.seconds)
            undo = session.install_hooks()
            if tracer is not None:
                tracer.install()
            try:
                session.run(counts)
            finally:
                if tracer is not None:
                    tracer.uninstall()
                for restore in reversed(undo):
                    restore()
            result.update(
                attempted=session.attempted, failed=session.failed,
                op_s=session.op_s, env=environment(),
                metrics=session.end_to_end(), tails=session.tails())
            if tracer is not None:
                result["layers"] = layer_metrics(tracer)
                tracer.write(args.out.with_suffix(".spans.jsonl"),
                             session.phase_of_op)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
