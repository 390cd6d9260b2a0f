"""Anomaly scoring, binary metrics, ROC construction, inference timing.

Scores are per-sample reconstruction losses: higher means more anomalous.
Classification against the calibrated threshold uses a strict ``>`` so a
score exactly at the threshold stays in the clean class.

``evaluate`` scores the split in batches of ``training.SCORE_BATCH``
snapshots, so every snapshot goes through the model once, and times each
batch. When numpy computes on one BLAS thread (``dawnet.ONE_BLAS_THREAD``)
the batches are cut into contiguous runs, one per CPU this process may run
on: this process scores the first run and a forked process each other
one, writing scores and batch times into memory they share. Each batch is
computed exactly as in one process, so the scores are the same bits.
``mean_batch_time_s`` is the median time of the full batches from all
processes (normalization, forward pass, reconstruction and wavelet loss),
or of the one batch when there is no full one;
``ms_per_snapshot`` is the wall time of the whole scoring over the number
of snapshots.
"""

import csv
import json
import mmap
import os
import pickle
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ONE_BLAS_THREAD
from . import autodiff as ad
from .errors import ConfigError, DawnetError, NumericalError, ShapeError
# evaluate does not use it; kept because perfbench/tracing.py wraps it
from .simulate import model_inputs  # noqa: F401
from .simulate import stack_rows
from .training import SCORE_BATCH, per_sample_losses


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    f1: float
    auc: float
    confusion: tuple  # (tn, fp, fn, tp)
    roc: tuple        # ((fpr, tpr, thr), ...)
    mean_batch_time_s: float
    num_class0: int
    num_class1: int
    threshold_value: float
    score_batch: int
    ms_per_snapshot: float

    def to_dict(self) -> dict:
        # wall-clock values live under "volatile" so that identical-seed
        # runs produce reports that differ only inside that block
        tn, fp, fn, tp = self.confusion
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "auc": self.auc,
            "confusion": {"tn": tn, "fp": fp, "fn": fn, "tp": tp},
            "num_class0": self.num_class0,
            "num_class1": self.num_class1,
            "threshold_value": self.threshold_value,
            "volatile": {"mean_batch_time_s": self.mean_batch_time_s,
                         "score_batch": self.score_batch,
                         "ms_per_snapshot": self.ms_per_snapshot},
        }


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional")
    # checked before the cast, which would truncate 0.6 to a valid 0
    if not np.all((arr == 0) | (arr == 1)):
        raise ConfigError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def _check_two_classes(labels: np.ndarray) -> None:
    if not (np.any(labels == 0) and np.any(labels == 1)):
        raise ConfigError("both classes must be present")


def score(model, snapshot, norm_stats, bank, lambda1: float,
          lambda2: float) -> float:
    """Composite reconstruction loss of a single snapshot: one row of a
    split, scored as a split of that one row."""
    losses = per_sample_losses(model, stack_rows([snapshot]), norm_stats,
                               bank, lambda1, lambda2)
    return float(losses[0])


def classify(scores, threshold):
    """1 iff score > threshold (strict); score == threshold stays 0."""
    value = threshold.value if hasattr(threshold, "value") else float(threshold)
    arr = np.asarray(scores, dtype=np.float64)
    preds = (arr > value).astype(np.int64)
    if arr.ndim == 0:
        return int(preds)
    return preds


def _sweep(scores, labels):
    """The operating points of every distinct score plus +/-inf, in
    decreasing-threshold order: ``(thresholds, tp, fp, n_pos, n_neg)`` with
    integer counts. A score counts as detected when it is above the
    threshold; a NaN is above no threshold, so it is never detected.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise ShapeError("scores and labels must have matching lengths")
    _check_two_classes(y)
    order = np.argsort(s, kind="stable")
    srt = s[order]
    # the distinct scores without np.unique, whose first call in a process
    # imports numpy.ma (~15 ms); a NaN sorts last and, as in np.unique,
    # counts once among them
    n_real = int(np.count_nonzero(~np.isnan(s)))
    distinct = np.ones(srt.size, dtype=bool)
    distinct[1:] = srt[1:] != srt[:-1]
    distinct[n_real + 1:] = False
    thresholds = np.concatenate(([np.inf], srt[distinct][::-1], [-np.inf]))
    n_pos = int(np.sum(y == 1))
    # scores above a threshold are a tail of the sorted scores; a NaN
    # exceeds no threshold, so the tail stops before the NaNs
    cut = np.minimum(np.searchsorted(srt, thresholds, side="right"), n_real)
    pos_below = np.concatenate(([0], np.cumsum(y[order])))
    tp = pos_below[n_real] - pos_below[cut]
    fp = (n_real - cut) - tp
    return thresholds, tp, fp, n_pos, y.size - n_pos


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties 1/2.

    The trapezoid area under the ROC of ``_sweep``, from its integer counts
    and one division, so it equals the rank-sum (Mann-Whitney) value to the
    last bit. A pair that holds a NaN score counts 0, as a NaN is never
    detected; ``evaluate`` refuses non-finite scores before it gets here.
    """
    _, tp, fp, n_pos, n_neg = _sweep(scores, labels)
    twice_area = int(np.dot(np.diff(fp), tp[:-1] + tp[1:]))
    return twice_area / (2 * n_pos * n_neg)


def roc_curve(scores, labels):
    """Operating points swept over every distinct score plus +/-inf.

    Returned in decreasing-threshold order, so the curve runs from (0, 0)
    to (1, 1), or short of it by the NaN scores, with both coordinates
    non-decreasing.
    """
    thresholds, tp, fp, n_pos, n_neg = _sweep(scores, labels)
    return [(f / n_neg, t / n_pos, thr) for f, t, thr
            in zip(fp.tolist(), tp.tolist(), thresholds.tolist())]


def trapezoid_area(roc_points) -> float:
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(roc_points, roc_points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


def f1_accuracy_confusion(pred, labels):
    """Accuracy, class-1 F1 (zero-division -> 0), and (tn, fp, fn, tp)."""
    p = _as_binary(pred, "pred")
    y = _as_binary(labels, "labels")
    if p.shape != y.shape:
        raise ShapeError("pred and labels must have matching lengths")
    tp = int(np.sum((p == 1) & (y == 1)))
    fp = int(np.sum((p == 1) & (y == 0)))
    fn = int(np.sum((p == 0) & (y == 1)))
    tn = int(np.sum((p == 0) & (y == 0)))
    accuracy = (tp + tn) / y.size
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
    return accuracy, f1, (tn, fp, fn, tp)


def time_inference(model, x: np.ndarray, repeats: int = 5) -> float:
    """Median wall-clock seconds per forward batch, warm-up excluded.

    Not used by ``evaluate``, which times the batches it scores; kept
    because perfbench/tracing.py wraps it by name.
    """
    if repeats < 3:
        raise ConfigError("repeats must be at least 3")
    with ad.no_grad():
        model.forward(x)  # warm-up
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.forward(x)
            samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def _processes() -> int:
    """How many processes ``evaluate`` scores on: one per CPU this process
    may run on when numpy computes on one BLAS thread, else 1, because a
    BLAS that already uses every core only loses from the fork."""
    if not ONE_BLAS_THREAD:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_INTERRUPTS = (signal.SIGINT, signal.SIGTERM)


def _fork(score, run, children) -> None:
    """Fork a process that scores ``run`` and record it in ``children`` as
    ``pid: fd``, the read end of its error pipe.

    SIGINT and SIGTERM are held from before the fork until the process is
    recorded, so an interrupt cannot leave behind a process that the
    caller does not know of and so can neither kill nor reap.
    """
    held = signal.pthread_sigmask(signal.SIG_BLOCK, ())     # the mask now
    fd = w = None
    try:
        # inside the try: an interrupt already pending is raised by this
        # call after it has changed the mask
        signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
        fd, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            _scorer(score, run, w, held)
        children[pid] = fd
    except BaseException:
        if fd is not None:
            os.close(fd)
        raise
    finally:
        if w is not None:
            os.close(w)
        # an interrupt that arrived meanwhile is raised here
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _scorer(score, run, w, mask):
    """The forked process: score ``run`` and exit with status 0, or write
    the pickled exception to the pipe ``w`` and exit with status 1. It
    leaves only through ``os._exit``, so it flushes no inherited buffer,
    runs no atexit hook and never returns into its caller's stack."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        score(*run)
        status = 0
    except BaseException as exc:
        error = pickle.dumps(exc)   # whole, or nothing is written
        with open(w, "wb") as pipe:
            pipe.write(error)
    finally:
        os._exit(status)


def _score_runs(score, runs) -> None:
    """``score(first, end)`` of every run: the first here, each other in a
    forked process, or here too when no process can be started.

    An exception a forked process raises is raised here, with its type and
    message. Every forked process is reaped before this returns or raises;
    on an error or an interrupt they are killed first.
    """
    children, here = {}, [runs[0]]    # pid -> read end of its error pipe
    try:
        for run in runs[1:]:
            try:
                _fork(score, run, children)
            except OSError:
                here.append(run)
        for run in here:
            score(*run)
        for pid, fd in list(children.items()):
            with open(fd, "rb", closefd=False) as pipe:
                error = pipe.read()         # until the process exits
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            if status != 0:
                raise (pickle.loads(error) if error else DawnetError(
                    f"scoring process {pid} ended with wait status "
                    f"{status}"))
    except BaseException:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fd in children.items():
            os.waitpid(pid, 0)
            os.close(fd)


def evaluate(detector, snapshots, norm_stats) -> MetricsReport:
    """Score a labeled test split with a ``training.Detector`` and assemble
    the full report.

    The split is scored once, in batches of ``SCORE_BATCH`` snapshots, and
    each batch is timed: ``mean_batch_time_s`` is the median time of the
    full batches (of the one partial batch if there is no full one) and
    ``ms_per_snapshot`` the wall time of the scoring per snapshot.

    With at least two batches, the batches are cut into at most
    ``_processes()`` contiguous runs and all but the first are scored in
    forked processes (see ``_score_runs``).

    Raises ``NumericalError`` if any score is non-finite: NaN would rank as
    a perfect AUC and inf would pass as a detection.
    """
    if len(snapshots) == 0:
        raise ConfigError("test split is empty")
    labels = snapshots.label
    _check_two_classes(labels)
    model, threshold, lambda1, lambda2, bank = detector
    n = len(snapshots)
    n_batches = -(-n // SCORE_BATCH)
    k = max(1, min(_processes(), n_batches)) if hasattr(os, "fork") else 1
    runs = [(i * n_batches // k, (i + 1) * n_batches // k) for i in range(k)]
    t0 = time.perf_counter()
    out = np.empty(n + n_batches)
    if k > 1:
        try:
            # scores, then batch times, in memory the forked processes share
            out = np.frombuffer(mmap.mmap(-1, out.nbytes))
        except OSError:
            runs = [(0, n_batches)]
    scores, batch_times = out[:n], out[n:]

    def score(first, end):
        # parameters that overflow the scores are reported by the check
        # below, not by numpy warnings on the way
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(first, end):
                sl = slice(b * SCORE_BATCH, (b + 1) * SCORE_BATCH)
                t_batch = time.perf_counter()
                scores[sl] = per_sample_losses(model, snapshots[sl],
                                               norm_stats, bank, lambda1,
                                               lambda2)
                batch_times[b] = time.perf_counter() - t_batch

    _score_runs(score, runs)
    wall = time.perf_counter() - t0
    if not np.isfinite(scores).all():
        raise NumericalError(f"{np.count_nonzero(~np.isfinite(scores))} of "
                             f"{scores.size} scores are not finite")
    preds = classify(scores, threshold)
    accuracy, f1, confusion = f1_accuracy_confusion(preds, labels)
    auc_value = auc(scores, labels)
    roc = tuple(roc_curve(scores, labels))
    full = batch_times[:max(1, n // SCORE_BATCH)]
    # not np.median, whose first call in a process imports numpy.ma (~15 ms)
    return MetricsReport(
        accuracy=accuracy, f1=f1, auc=auc_value, confusion=confusion,
        roc=roc, mean_batch_time_s=statistics.median(full.tolist()),
        num_class0=int(np.sum(labels == 0)),
        num_class1=int(np.sum(labels == 1)),
        threshold_value=float(threshold.value),
        score_batch=SCORE_BATCH,
        ms_per_snapshot=wall * 1e3 / n,
    )


def write_report_files(report: MetricsReport, out_dir) -> None:
    """Emit report.json plus roc.csv / confusion.csv for external plotting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "roc.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "tpr", "thr"])
        for fpr, tpr, thr in report.roc:
            writer.writerow([repr(fpr), repr(tpr), repr(thr)])
    tn, fp, fn, tp = report.confusion
    with open(out / "confusion.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tn", "fp", "fn", "tp"])
        writer.writerow([tn, fp, fn, tp])
