"""Anomaly scoring, binary metrics, ROC construction, inference timing.

Scores are per-sample reconstruction losses: higher means more anomalous.
Classification against the calibrated threshold uses a strict ``>`` so a
score exactly at the threshold stays in the clean class.

Timing comes from the scoring itself: ``evaluate`` scores the split in
batches of ``training.SCORE_BATCH`` snapshots and times each batch, so every
snapshot goes through the model once. ``mean_batch_time_s`` is the median
time of the full batches (normalization, forward pass, reconstruction and
wavelet loss), or of the one batch when there is no full one;
``ms_per_snapshot`` is the whole scoring time over the number of snapshots.
"""

import csv
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError, ShapeError
# evaluate does not use it; kept because perfbench/tracing.py wraps it
from .simulate import model_inputs  # noqa: F401
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
    """Composite reconstruction loss of a single snapshot."""
    losses = per_sample_losses(model, [snapshot], norm_stats, bank,
                               lambda1, lambda2)
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


def time_inference(model, amp: np.ndarray, psd: np.ndarray,
                   repeats: int = 5) -> float:
    """Median wall-clock seconds per forward batch, warm-up excluded.

    Not used by ``evaluate``, which times the batches it scores; kept
    because perfbench/tracing.py wraps it by name.
    """
    if repeats < 3:
        raise ConfigError("repeats must be at least 3")
    with ad.no_grad():
        model.forward(amp, psd)  # warm-up
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            model.forward(amp, psd)
            samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def evaluate(detector, snapshots, norm_stats) -> MetricsReport:
    """Score a labeled test split with a ``training.Detector`` and assemble
    the full report.

    The split is scored once, in batches of ``SCORE_BATCH`` snapshots, and
    each batch is timed: ``mean_batch_time_s`` is the median time of the
    full batches (of the one partial batch if there is no full one) and
    ``ms_per_snapshot`` the total scoring time per snapshot.

    Raises ``NumericalError`` if any score is non-finite: NaN would rank as
    a perfect AUC and inf would pass as a detection.
    """
    if not snapshots:
        raise ConfigError("test split is empty")
    labels = np.array([s.label for s in snapshots], dtype=np.int64)
    _check_two_classes(labels)
    model, threshold, lambda1, lambda2, bank = detector
    scores = np.empty(len(snapshots), dtype=np.float64)
    batch_times = []
    # parameters that overflow the scores are reported by the check below,
    # not by numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(snapshots), SCORE_BATCH):
            sl = slice(start, start + SCORE_BATCH)
            t0 = time.perf_counter()
            scores[sl] = per_sample_losses(model, snapshots[sl], norm_stats,
                                           bank, lambda1, lambda2)
            batch_times.append(time.perf_counter() - t0)
    if not np.isfinite(scores).all():
        raise NumericalError(f"{np.count_nonzero(~np.isfinite(scores))} of "
                             f"{scores.size} scores are not finite")
    preds = classify(scores, threshold)
    accuracy, f1, confusion = f1_accuracy_confusion(preds, labels)
    auc_value = auc(scores, labels)
    roc = tuple(roc_curve(scores, labels))
    full = batch_times[:len(snapshots) // SCORE_BATCH] or batch_times
    # not np.median, whose first call in a process imports numpy.ma (~15 ms)
    return MetricsReport(
        accuracy=accuracy, f1=f1, auc=auc_value, confusion=confusion,
        roc=roc, mean_batch_time_s=statistics.median(full),
        num_class0=int(np.sum(labels == 0)),
        num_class1=int(np.sum(labels == 1)),
        threshold_value=float(threshold.value),
        score_batch=SCORE_BATCH,
        ms_per_snapshot=sum(batch_times) * 1e3 / len(snapshots),
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
