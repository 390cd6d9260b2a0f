"""Anomaly scoring, binary metrics, ROC construction, inference timing.

Scores are per-sample reconstruction losses: higher means more anomalous.
Classification against the calibrated threshold uses a strict ``>`` so a
score exactly at the threshold stays in the clean class.
"""

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .simulate import model_inputs
from .training import per_sample_losses


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
            "volatile": {"mean_batch_time_s": self.mean_batch_time_s},
        }


def _as_binary(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype == bool:
        arr = arr.astype(np.int64)
    arr = arr.astype(np.int64)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional")
    if not np.all((arr == 0) | (arr == 1)):
        raise ConfigError(f"{name} must contain only 0 and 1")
    return arr


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


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    # 1-based ranks; tied scores share the mean of their rank block
    n = scores.size
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    srt = scores[order]
    while i < n:
        j = i
        while j + 1 < n and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise ShapeError("scores and labels must have matching lengths")
    _check_two_classes(y)
    ranks = _average_ranks(s)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_curve(scores, labels):
    """Operating points swept over every distinct score plus +/-inf.

    Returned in decreasing-threshold order, so the curve runs from (0, 0)
    to (1, 1) with both coordinates non-decreasing.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _as_binary(labels, "labels")
    if s.shape != y.shape:
        raise ShapeError("scores and labels must have matching lengths")
    _check_two_classes(y)
    order = np.argsort(s, kind="stable")
    srt = s[order]
    thresholds = np.concatenate(([np.inf], np.unique(srt)[::-1], [-np.inf]))
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    # scores above a threshold are a tail of the sorted scores; a NaN sorts
    # last and exceeds no threshold, so the tail stops before the NaNs
    n_real = int(np.count_nonzero(~np.isnan(s)))
    cut = np.minimum(np.searchsorted(srt, thresholds, side="right"), n_real)
    pos_below = np.concatenate(([0], np.cumsum(y[order])))
    tp = pos_below[n_real] - pos_below[cut]
    fp = (n_real - cut) - tp
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
    """Median wall-clock seconds per forward batch, warm-up excluded."""
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


def evaluate(model, snapshots, norm_stats, threshold, bank, lambda1: float,
             lambda2: float, time_repeats: int = 5,
             time_batch: int = 64) -> MetricsReport:
    """Score a labeled test split and assemble the full report."""
    if not snapshots:
        raise ConfigError("test split is empty")
    labels = np.array([s.label for s in snapshots], dtype=np.int64)
    _check_two_classes(labels)
    scores = per_sample_losses(model, snapshots, norm_stats, bank,
                               lambda1, lambda2)
    preds = classify(scores, threshold)
    accuracy, f1, confusion = f1_accuracy_confusion(preds, labels)
    auc_value = auc(scores, labels)
    roc = tuple(roc_curve(scores, labels))
    amp, psd = model_inputs(snapshots[:time_batch], norm_stats)
    batch_time = time_inference(model, amp[:, 0, :], psd[:, 0, :],
                                repeats=time_repeats)
    return MetricsReport(
        accuracy=accuracy, f1=f1, auc=auc_value, confusion=confusion,
        roc=roc, mean_batch_time_s=batch_time,
        num_class0=int(np.sum(labels == 0)),
        num_class1=int(np.sum(labels == 1)),
        threshold_value=float(threshold.value if hasattr(threshold, "value")
                              else threshold),
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
