"""Span tracing of dawnet's layers, installed from outside the package.

Each traced function is replaced, under the name its caller looks it up by,
with a wrapper that records one span: name, start, end, parent span and
operation id. Spans stay in memory until the run ends. Per-layer metrics are
computed from them afterwards: calls, inclusive time, self time (inclusive
time minus the time covered by child spans) and a few counters taken at the
same boundaries.
"""

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

KERNELS = ("conv1d_fw", "conv1d_gx", "conv1d_gw", "tconv1d_fw", "tconv1d_gx",
           "tconv1d_gw", "dwt_fw", "dwt_gx", "dwt_gk")

# (module, attribute looked up by the caller, span name). A function is wrapped
# where its caller finds it: evaluation imported per_sample_losses and
# model_inputs by name, autodiff reads backend.<kernel> at call time, and
# generate_dataset reads generate_snapshot from the simulate module globals.
WRAPS = (
    ("dawnet.cli", "main", "cli.main"),
    ("dawnet.simulate", "generate_dataset", "simulate.generate_dataset"),
    ("dawnet.simulate", "generate_snapshot", "simulate.generate_snapshot"),
    ("dawnet.simulate", "synthesize_waveform", "simulate.synthesize_waveform"),
    ("dawnet.simulate", "welch_psd_db", "simulate.welch_psd_db"),
    ("dawnet.simulate", "model_inputs", "simulate.model_inputs"),
    ("dawnet.evaluation", "model_inputs", "simulate.model_inputs"),
    ("dawnet.datafile", "write_dataset", "datafile.write_dataset"),
    ("dawnet.datafile", "read_dataset", "datafile.read_dataset"),
    ("dawnet.datafile", "write_checkpoint", "datafile.write_checkpoint"),
    ("dawnet.datafile", "read_checkpoint", "datafile.read_checkpoint"),
    ("dawnet.model", "DualDomainAutoencoder.encode", "model.encode"),
    ("dawnet.model", "DualDomainAutoencoder.fuse", "model.fuse"),
    ("dawnet.model", "DualDomainAutoencoder.decode", "model.decode"),
    ("dawnet.wavelet", "build_bank", "wavelet.build_bank"),
    ("dawnet.wavelet", "wavelet_loss", "wavelet.wavelet_loss"),
    ("dawnet.autodiff", "backward", "autodiff.backward"),
    *(("dawnet.backend", k, f"backend.{k}") for k in KERNELS),
    ("dawnet.training", "train_and_calibrate", "training.train_and_calibrate"),
    ("dawnet.training", "train", "training.train"),
    ("dawnet.training", "composite_loss", "training.composite_loss"),
    ("dawnet.training", "Adam.step", "training.Adam.step"),
    ("dawnet.training", "calibrate_threshold", "training.calibrate_threshold"),
    ("dawnet.training", "per_sample_losses", "training.per_sample_losses"),
    ("dawnet.evaluation", "per_sample_losses", "training.per_sample_losses"),
    ("dawnet.evaluation", "evaluate", "evaluation.evaluate"),
    ("dawnet.evaluation", "score", "evaluation.score"),
    ("dawnet.evaluation", "auc", "evaluation.auc"),
    ("dawnet.evaluation", "roc_curve", "evaluation.roc_curve"),
    ("dawnet.evaluation", "time_inference", "evaluation.time_inference"),
    ("dawnet.evaluation", "write_report_files",
     "evaluation.write_report_files"),
)

MODULES = ("simulate", "datafile", "model", "wavelet", "autodiff", "backend",
           "training", "evaluation", "cli")


# Multiply-adds of one kernel call from its argument and result shapes: every
# kernel is a correlation, so each element of the larger operand meets
# (contracted channels x taps) weights once.
_MACS = {
    "conv1d_fw": lambda a, y: y.size * a[1].shape[1] * a[1].shape[2],
    "conv1d_gx": lambda a, y: a[0].size * a[1].shape[1] * a[1].shape[2],
    "conv1d_gw": lambda a, y: a[0].size * y.shape[1] * y.shape[2],
    "tconv1d_fw": lambda a, y: a[0].size * a[1].shape[1] * a[1].shape[2],
    "tconv1d_gx": lambda a, y: y.size * a[1].shape[1] * a[1].shape[2],
    "tconv1d_gw": lambda a, y: a[1].size * y.shape[1] * y.shape[2],
    "dwt_fw": lambda a, y: y.size * a[1].shape[1],
    "dwt_gx": lambda a, y: a[0].size * a[1].shape[1],
    "dwt_gk": lambda a, y: a[0].size * y.shape[1],
}


def _kernel_counters(kernel):
    def count(args, out):
        moved = out.nbytes + sum(getattr(a, "nbytes", 0) for a in args)
        return {"flop": 2 * _MACS[kernel](args, out), "bytes": moved}
    return count


def _file_bytes(args, out):
    return {"bytes": os.path.getsize(args[0])}


def _kept(args, out):
    return {"kept": len(out.train) + len(out.validation) + len(out.test)}


COUNTERS = {
    "datafile.write_dataset": _file_bytes,
    "datafile.read_dataset": _file_bytes,
    "simulate.generate_dataset": _kept,
    **{f"backend.{k}": _kernel_counters(k) for k in KERNELS},
}


def patch(module, attr, make):
    """Replace ``module.attr`` (dotted for class members) by make(original).

    Returns a callable that puts the original back.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)


class Tracer:
    """Spans of one run. Only calls made while ``op`` >= 0 are recorded, so
    the benchmark's own checks between operations leave no spans."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counters = defaultdict(Counter)
        self.errors = Counter()
        self.op = -1
        self._stack = []
        self._undo = []

    def install(self):
        for module, attr, span in WRAPS:
            self._undo.append(
                patch(module, attr, functools.partial(self._wrap, span)))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _wrap(self, span, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(span)
        module = span.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                self.counters[span].update(counter(args, out))
            return out

        return wrapper

    def layers(self):
        """{span name: {"calls", "ms", "self_ms"}} over every span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - inner) * 1e3
        return out

    def write(self, path, phase_of_op):
        """One JSON object per span, in start order."""
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                row = dict(zip(keys, record), phase=phase_of_op[record[4]])
                fh.write(json.dumps(row) + "\n")


def layer_metrics(tracer):
    """Per-layer metrics named in BENCHMARK.json: {name: (value, unit)}."""
    rows = tracer.layers()

    def row(name):
        return rows.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})

    def rate(name):
        seconds = row(name)["ms"] / 1e3
        mb = tracer.counters[name]["bytes"] / 1e6
        return mb / seconds if seconds > 0 else 0.0

    snapshots = row("simulate.generate_snapshot")["calls"]
    kept = tracer.counters["simulate.generate_dataset"]["kept"]
    evaluate_ms = row("evaluation.evaluate")["ms"]
    timing_ms = row("evaluation.time_inference")["ms"]
    m = {
        "simulate.generate_snapshot.calls": (snapshots, "count"),
        "simulate.generate_snapshot.self_ms":
            (row("simulate.generate_snapshot")["self_ms"], "ms"),
        "simulate.synthesize_waveform.self_ms":
            (row("simulate.synthesize_waveform")["self_ms"], "ms"),
        "simulate.welch_psd_db.self_ms":
            (row("simulate.welch_psd_db")["self_ms"], "ms"),
        "simulate.keep_ratio": (kept / snapshots if snapshots else 0.0,
                                "ratio"),
        "datafile.write_dataset.ms": (row("datafile.write_dataset")["ms"],
                                      "ms"),
        "datafile.write_dataset.mb_per_s": (rate("datafile.write_dataset"),
                                            "MB/s"),
        "datafile.read_dataset.ms": (row("datafile.read_dataset")["ms"], "ms"),
        "datafile.read_dataset.mb_per_s": (rate("datafile.read_dataset"),
                                           "MB/s"),
        "datafile.read_checkpoint.ms": (row("datafile.read_checkpoint")["ms"],
                                        "ms"),
        "datafile.write_checkpoint.ms":
            (row("datafile.write_checkpoint")["ms"], "ms"),
        "model.encode.self_ms": (row("model.encode")["self_ms"], "ms"),
        "model.fuse.self_ms": (row("model.fuse")["self_ms"], "ms"),
        "model.decode.self_ms": (row("model.decode")["self_ms"], "ms"),
        "wavelet.wavelet_loss.self_ms":
            (row("wavelet.wavelet_loss")["self_ms"], "ms"),
        "autodiff.backward.self_ms": (row("autodiff.backward")["self_ms"],
                                      "ms"),
    }
    # dwt_gk runs only for a learnable wavelet bank, which no dawnet command
    # turns on, so its metrics would read zero on every run
    for k in KERNELS[:-1]:
        name = f"backend.{k}"
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.self_ms"] = (row(name)["self_ms"], "ms")
        m[f"{name}.gflop"] = (tracer.counters[name]["flop"] / 1e9, "GFLOP")
        m[f"{name}.mb_moved"] = (tracer.counters[name]["bytes"] / 1e6, "MB")
    m.update({
        "training.composite_loss.self_ms":
            (row("training.composite_loss")["self_ms"], "ms"),
        "training.Adam.step.ms": (row("training.Adam.step")["ms"], "ms"),
        "training.calibrate_threshold.ms":
            (row("training.calibrate_threshold")["ms"], "ms"),
        "training.per_sample_losses.self_ms":
            (row("training.per_sample_losses")["self_ms"], "ms"),
        "evaluation.evaluate.self_ms": (row("evaluation.evaluate")["self_ms"],
                                        "ms"),
        "evaluation.roc_curve.ms": (row("evaluation.roc_curve")["ms"], "ms"),
        "evaluation.auc.ms": (row("evaluation.auc")["ms"], "ms"),
        "evaluation.write_report_files.ms":
            (row("evaluation.write_report_files")["ms"], "ms"),
        "evaluation.time_inference.ms": (timing_ms, "ms"),
        # useful share of evaluate: the part not spent re-running forward
        # passes only to time them
        "evaluation.time_inference.share":
            (1.0 - timing_ms / evaluate_ms if evaluate_ms else 0.0, "ratio"),
        "cli.main.self_ms": (row("cli.main")["self_ms"], "ms"),
    })
    for module in MODULES:
        m[f"{module}.errors"] = (tracer.errors[module], "count")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.layer_self_s"] = (
        sum(r["self_ms"] for r in rows.values()) / 1e3, "s")
    return m
