"""Metric oracles: AUC, ROC geometry, confusion arithmetic, timing, and
scoring on several processes."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawnet import autodiff as ad
from dawnet import evaluation as ev
from dawnet import model as m
from dawnet import simulate as sim
from dawnet import training as tr
from dawnet import wavelet
from dawnet.errors import ConfigError, NumericalError, ShapeError


def _brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# --- auc ----------------------------------------------------------------------

def test_auc_documented_example():
    got = ev.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert abs(got - 0.75) < 1e-12


def test_auc_separated_and_ties():
    assert ev.auc([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1]) == 1.0
    assert ev.auc([5.0, 5.0, 5.0, 5.0], [0, 1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ConfigError):
        ev.auc([0.1, 0.2], [1, 1])
    with pytest.raises(ShapeError):
        ev.auc([0.1, 0.2, 0.3], [0, 1])


def test_auc_matches_brute_force_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(4, 100))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores so ties actually occur
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        # both are the pair count over n_pos * n_neg, rounded once
        assert ev.auc(scores, labels) == _brute_force_auc(scores, labels)


def test_auc_nan_is_never_detected():
    # a NaN is above no threshold: a pair that holds one counts 0
    assert ev.auc([np.nan, 1.0, 0.0], [1, 1, 0]) == 0.5
    assert ev.auc([0.5, np.nan, 0.2], [1, 0, 0]) == 0.5
    assert ev.auc([np.nan, np.nan], [0, 1]) == 0.0
    scores = [np.nan, 0.3, 0.1, np.nan, 0.3, 0.9]
    labels = [1, 0, 1, 0, 1, 0]
    area = ev.trapezoid_area(ev.roc_curve(scores, labels))
    assert ev.auc(scores, labels) == pytest.approx(area, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=50.0),
       st.floats(min_value=-10.0, max_value=10.0))
def test_auc_invariant_under_positive_affine(scale, shift):
    rng = np.random.default_rng(7)
    scores = rng.uniform(0, 1, size=40)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    base = ev.auc(scores, labels)
    moved = ev.auc(scale * scores + shift, labels)
    assert abs(base - moved) < 1e-9


# --- roc ----------------------------------------------------------------------

def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(3)
    scores = rng.uniform(0, 1, size=60)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    pts = ev.roc_curve(scores, labels)
    assert pts[0][:2] == (0.0, 0.0)
    assert pts[-1][:2] == (1.0, 1.0)
    assert pts[0][2] == np.inf and pts[-1][2] == -np.inf
    fpr = [p[0] for p in pts]
    tpr = [p[1] for p in pts]
    assert all(b >= a for a, b in zip(fpr, fpr[1:]))
    assert all(b >= a for a, b in zip(tpr, tpr[1:]))
    # one point per distinct score plus the two sentinels
    assert len(pts) == len(np.unique(scores)) + 2


def test_roc_trapezoid_matches_rank_auc():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        scores = rng.standard_normal(n)  # continuous => distinct
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        area = ev.trapezoid_area(ev.roc_curve(scores, labels))
        assert abs(area - ev.auc(scores, labels)) < 1e-10


def test_roc_trapezoid_handles_ties_too():
    scores = [1.0, 1.0, 2.0, 2.0, 3.0]
    labels = [0, 1, 0, 1, 1]
    area = ev.trapezoid_area(ev.roc_curve(scores, labels))
    assert abs(area - ev.auc(scores, labels)) < 1e-10


def _roc_by_scan(scores, labels):
    # the defining sweep: every threshold scans every score
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int(np.sum(y == 1))
    points = []
    for thr in np.concatenate(([np.inf], np.unique(s)[::-1], [-np.inf])):
        pred = s > thr
        points.append((float(np.sum(pred & (y == 0))) / (y.size - n_pos),
                       float(np.sum(pred & (y == 1))) / n_pos, float(thr)))
    return points


@pytest.mark.parametrize("scores,labels", [
    ([1.0, 1.0, 2.0, 2.0, 3.0, 0.5, 2.0], [0, 1, 0, 1, 1, 0, 1]),
    ([0.7] * 6, [0, 1, 1, 0, 0, 1]),
    ([np.inf, 1.0, -np.inf, 2.0, np.inf, -np.inf, 1.0],
     [1, 0, 0, 1, 0, 1, 1]),
    ([np.nan, 0.3, 0.1, np.nan, 0.3, 0.9], [1, 0, 1, 0, 1, 0]),
], ids=["ties", "all-equal", "inf-endpoints", "nan"])
def test_roc_matches_threshold_scan(scores, labels):
    got = ev.roc_curve(scores, labels)
    ref = _roc_by_scan(scores, labels)
    assert all(type(v) is float for p in got for v in p)
    np.testing.assert_array_equal(np.array(got), np.array(ref))


def test_roc_matches_threshold_scan_on_rounded_scores():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 300))
        scores = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        assert ev.roc_curve(scores, labels) == _roc_by_scan(scores, labels)


@pytest.mark.parametrize("n_nan", [0, 1, 3])
def test_roc_thresholds_count_nan_once_like_unique(n_nan):
    scores = [0.3, 0.1, 0.3, 0.9, 0.1, 0.5] + [np.nan] * n_nan
    labels = ([0, 1] * 5)[:len(scores)]
    got = [thr for *_, thr in ev.roc_curve(scores, labels)]
    want = np.concatenate(([np.inf], np.unique(scores)[::-1], [-np.inf]))
    assert np.count_nonzero(np.isnan(got)) == min(n_nan, 1)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.array(ev.roc_curve(scores, labels)),
                                  np.array(_roc_by_scan(scores, labels)))


def test_roc_single_class_rejected():
    with pytest.raises(ConfigError):
        ev.roc_curve([0.1, 0.2], [0, 0])


# --- classify / confusion ------------------------------------------------------

def test_classify_strict_inequality():
    th = tr.Threshold(value=1.5, mu=1.0, sigma=0.5)
    assert ev.classify(1.5, th) == 0
    assert ev.classify(np.nextafter(1.5, 2.0), th) == 1
    np.testing.assert_array_equal(ev.classify([1.0, 1.5, 2.0], th),
                                  [0, 0, 1])


def test_confusion_hand_example():
    # tp=3 fp=1 fn=2 tn=4
    pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
    accuracy, f1, confusion = ev.f1_accuracy_confusion(pred, labels)
    assert confusion == (4, 1, 2, 3)
    assert abs(accuracy - 0.7) < 1e-12
    assert abs(f1 - 2 * 0.75 * 0.6 / (0.75 + 0.6)) < 1e-12
    assert round(f1, 4) == 0.6667


def test_confusion_perfect_and_degenerate():
    acc, f1, _ = ev.f1_accuracy_confusion([0, 1, 0, 1], [0, 1, 0, 1])
    assert acc == 1.0 and f1 == 1.0
    acc, f1, conf = ev.f1_accuracy_confusion([0, 0, 0], [1, 1, 0])
    assert f1 == 0.0
    assert sum(conf) == 3
    with pytest.raises(ShapeError):
        ev.f1_accuracy_confusion([0, 1], [0, 1, 1])
    with pytest.raises(ConfigError):
        ev.f1_accuracy_confusion([0, 2], [0, 1])


@pytest.mark.parametrize("call", [
    lambda labels: ev.auc([0.1, 0.2, 0.3, 0.4], labels),
    lambda labels: ev.roc_curve([0.1, 0.2, 0.3, 0.4], labels),
    lambda labels: ev.f1_accuracy_confusion([0, 1, 0, 1], labels),
], ids=["auc", "roc_curve", "f1_accuracy_confusion"])
@pytest.mark.parametrize("labels", [[0.6, 1, 0, 1.9], [0.2, 1, 0, 1],
                                    [0, 1, 0, np.nan]])
def test_fractional_labels_refused(call, labels):
    # a cast before the check used to truncate 0.6 to a valid 0
    with pytest.raises(ConfigError):
        call(labels)


def test_bool_labels_accepted():
    assert ev.auc([0.1, 0.9], [False, True]) == 1.0
    assert ev.f1_accuracy_confusion([True, False], [1, 0])[2] == (1, 0, 0, 1)


# --- scoring / timing / report -------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    bundle = sim.generate_dataset(41, (8, 4, 6))
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=9)
    return bundle, net


def test_score_nonnegative_and_deterministic(small_world):
    bundle, net = small_world
    snap = bundle.test[0]
    a = ev.score(net, snap, bundle.norm_stats, None, 1.0, 0.0)
    b = ev.score(net, snap, bundle.norm_stats, None, 1.0, 0.0)
    assert a >= 0.0 and a == b


def test_time_inference_contract(small_world):
    # evaluate times its own batches; the benchmark traces this by name
    bundle, net = small_world
    x = sim.model_inputs(bundle.test[:4], bundle.norm_stats)
    assert x.shape == (4, 2 * sim.SNAPSHOT_LEN)
    secs = ev.time_inference(net, x, repeats=3)
    assert secs > 0.0 and np.isfinite(secs)
    with pytest.raises(ConfigError):
        ev.time_inference(net, x, repeats=2)


def _detector(net):
    th = tr.Threshold(value=0.5, mu=0.4, sigma=0.1)
    return tr.Detector(net, th, 1.0, 0.0, None)


def test_evaluate_report_shape(small_world):
    bundle, net = small_world
    report = ev.evaluate(_detector(net), bundle.test, bundle.norm_stats)
    tn, fp, fn, tp = report.confusion
    assert tn + fp + fn + tp == len(bundle.test)
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.f1 <= 1.0
    assert 0.0 <= report.auc <= 1.0
    assert report.num_class0 + report.num_class1 == len(bundle.test)
    assert report.threshold_value == 0.5
    assert set(report.to_dict()["volatile"]) == {
        "mean_batch_time_s", "score_batch", "ms_per_snapshot"}


def test_evaluate_scores_each_snapshot_once(monkeypatch):
    # 130 snapshots: two full scoring batches and one partial one
    bundle = sim.generate_dataset(44, (8, 4, 65))
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=5)
    bank = wavelet.build_bank((4, 8, 16))
    th = tr.Threshold(value=0.5, mu=0.4, sigma=0.1)
    detector = tr.Detector(net, th, 1.0, 0.1, bank)
    labels = [s.label for s in bundle.test]
    # the whole split as one batch
    x = sim.model_inputs(bundle.test, bundle.norm_stats)
    with ad.no_grad():
        want = tr.sample_losses(net.forward(x).data - x, bank, 1.0, 0.1)[0]

    rows, batches = [], []
    forward, losses = net.forward, ev.per_sample_losses

    def counted_forward(x):
        rows.append(len(x))
        return forward(x)

    def kept_losses(*args, **kwargs):
        batches.append(losses(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(net, "forward", counted_forward)
    monkeypatch.setattr(ev, "per_sample_losses", kept_losses)
    # the batches are kept in call order, so one thread scores them all
    monkeypatch.setattr(ev, "_workers", lambda: 1)
    report = ev.evaluate(detector, bundle.test, bundle.norm_stats)

    assert len(bundle.test) == 130 and sum(rows) == 130
    assert [b.size for b in batches] == [64, 64, 2]
    scores = np.concatenate(batches)
    # batch size may move the last bits with the BLAS, as in
    # test_per_sample_losses_batch_invariant
    np.testing.assert_allclose(scores, want, rtol=0, atol=1e-10)
    assert report.auc == ev.auc(scores, labels)
    assert report.roc == tuple(ev.roc_curve(scores, labels))
    assert report.mean_batch_time_s > 0
    assert np.isfinite(report.mean_batch_time_s)
    volatile = report.to_dict()["volatile"]
    assert volatile["score_batch"] == tr.SCORE_BATCH == 64
    assert volatile["ms_per_snapshot"] > 0


@pytest.mark.parametrize("ablation", ["full", "vanilla"])
def test_evaluate_trained_detector(ablation):
    # the detector carries its own weights: a vanilla model scores without a
    # bank, where passing the default 1.0, 0.1 by hand would raise
    bundle = sim.generate_dataset(43, (8, 4, 4))
    net = m.DualDomainAutoencoder(m.ModelConfig(ablation=ablation), seed=2)
    cfg = tr.TrainConfig(epochs=1, batch_size=8, wavelet_scales=(4, 8))
    result = tr.train_and_calibrate(bundle, net, cfg)
    detector = result["detector"]
    assert detector._fields == ("model", "threshold", "lambda1", "lambda2",
                                "bank")
    assert detector.model is net and result["model"] is net
    assert detector.lambda2 == (cfg.lambda2 if ablation != "vanilla"
                                else 0.0)
    assert (detector.bank is None) == (ablation == "vanilla")
    assert detector.threshold == tr.calibrate_threshold(
        net, bundle.validation, bundle.norm_stats, detector.bank,
        detector.lambda1, detector.lambda2)
    report = ev.evaluate(detector, bundle.test, bundle.norm_stats)
    scores = tr.per_sample_losses(net, bundle.test, bundle.norm_stats,
                                  detector.bank, detector.lambda1,
                                  detector.lambda2)
    labels = [s.label for s in bundle.test]
    assert report.auc == ev.auc(scores, labels)
    assert report.threshold_value == detector.threshold.value


@pytest.mark.parametrize("lambda1", [np.inf, np.nan], ids=["inf", "nan"])
def test_evaluate_rejects_nonfinite_scores(small_world, lambda1):
    # NaN scores used to rank as AUC 1.0 and inf ones as detections
    bundle, net = small_world
    th = tr.Threshold(value=0.5, mu=0.4, sigma=0.1)
    with pytest.raises(NumericalError, match="not finite"):
        ev.evaluate(tr.Detector(net, th, lambda1, 0.0, None), bundle.test,
                    bundle.norm_stats)


def test_write_report_files(tmp_path, small_world):
    bundle, net = small_world
    report = ev.evaluate(_detector(net), bundle.test, bundle.norm_stats)
    ev.write_report_files(report, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["confusion.csv", "report.json", "roc.csv"]
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["accuracy"] == report.accuracy
    assert loaded["confusion"]["tp"] == report.confusion[3]
    roc_lines = (tmp_path / "roc.csv").read_text().strip().split("\n")
    assert roc_lines[0] == "fpr,tpr,thr"
    assert len(roc_lines) == len(report.roc) + 1
    conf_lines = (tmp_path / "confusion.csv").read_text().strip().split("\n")
    assert conf_lines[0] == "tn,fp,fn,tp"


def test_zero_row_splits_refused_one_row_accepted(small_world):
    # a split's emptiness is its length: numpy refuses the truth value of an
    # empty array, and that error would escape the CLI as a traceback
    bundle, net = small_world
    cfg = tr.TrainConfig(epochs=1, batch_size=4)
    trained = m.DualDomainAutoencoder(m.ModelConfig(), seed=9)
    stages = {
        "stats": lambda s: sim.normalization_stats(s),
        "train": lambda s: tr.train(sim.DatasetBundle(
            s, bundle.validation, bundle.test, bundle.norm_stats), trained,
            cfg),
        "calibrate": lambda s: tr.calibrate_threshold(
            net, s, bundle.norm_stats, None, 1.0, 0.0),
    }
    for name, stage in stages.items():
        with pytest.raises(ConfigError, match="empty"):
            stage(bundle.train[:0])
        assert stage(bundle.train[:1]) is not None, name
    with pytest.raises(ConfigError, match="empty"):
        ev.evaluate(_detector(net), bundle.test[:0], bundle.norm_stats)
    # one row is one class, and evaluation needs both
    with pytest.raises(ConfigError, match="both classes"):
        ev.evaluate(_detector(net), bundle.test[:1], bundle.norm_stats)
    pair = bundle.test[[0, -1]]
    assert list(pair.label) == [0, 1]
    report = ev.evaluate(_detector(net), pair, bundle.norm_stats)
    assert report.num_class0 == report.num_class1 == 1


# --- scoring on several threads -----------------------------------------------

@pytest.fixture(scope="module")
def three_batches():
    # 130 snapshots: two full scoring batches and a partial one
    bundle = sim.generate_dataset(44, (8, 4, 65))
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=5)
    th = tr.Threshold(value=0.5, mu=0.4, sigma=0.1)
    detector = tr.Detector(net, th, 1.0, 0.1, wavelet.build_bank((4, 8, 16)))
    return bundle, detector


def _evaluate(monkeypatch, workers, detector, split, norm_stats):
    """``evaluate`` as it runs where ``_workers()`` is ``workers``."""
    monkeypatch.setattr(ev, "_workers", lambda: workers)
    return ev.evaluate(detector, split, norm_stats)


def _count_thread_starts(monkeypatch):
    """The names of the threads started from now on."""
    started, start = [], threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _outside_volatile(report):
    doc = report.to_dict()
    doc.pop("volatile")
    return doc, np.array(report.roc).tobytes()


@pytest.mark.parametrize("one_thread", [True, False])
def test_one_worker_per_cpu_only_on_one_blas_thread(monkeypatch, one_thread):
    # a BLAS that already uses every core would only lose from more threads
    monkeypatch.setattr(ev, "ONE_BLAS_THREAD", one_thread)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert ev._workers() == (cpus if one_thread else 1)


@pytest.mark.parametrize("imports, threads, expected", [
    ("dawnet", "2", True),            # the pin overrides the environment
    ("numpy, dawnet", None, False),   # numpy came first: its own count
    ("numpy, dawnet", "1", True),     # numpy came first on one thread
])
def test_one_blas_thread_reads_the_pin(imports, threads, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    if threads:
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), threads))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ev.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c",
         f"import {imports}; print(dawnet.ONE_BLAS_THREAD)"],
        env=env, check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == str(expected)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_threaded_scoring_equals_one_thread(three_batches, monkeypatch,
                                            workers):
    bundle, detector = three_batches
    one = _evaluate(monkeypatch, 1, detector, bundle.test, bundle.norm_stats)
    before = threading.active_count()
    started = _count_thread_starts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # hand the GIL over as often as it can
    try:
        many = _evaluate(monkeypatch, workers, detector, bundle.test,
                         bundle.norm_stats)
    finally:
        sys.setswitchinterval(interval)
    # never more threads than batches; this one scores the first run
    assert len(started) == min(workers, 3) - 1
    assert _outside_volatile(many) == _outside_volatile(one)
    volatile = many.to_dict()["volatile"]
    assert volatile["mean_batch_time_s"] > 0
    assert volatile["ms_per_snapshot"] > 0
    assert threading.active_count() == before


def test_one_batch_is_scored_here(small_world, monkeypatch):
    bundle, net = small_world
    started = _count_thread_starts(monkeypatch)
    _evaluate(monkeypatch, 2, _detector(net), bundle.test, bundle.norm_stats)
    assert started == []


def test_training_after_threaded_scoring_updates_the_parameters(
        three_batches, monkeypatch):
    # the scoring threads' no_grad blocks overlap; graph building must be
    # on again in this thread afterwards
    bundle, detector = three_batches
    _evaluate(monkeypatch, 3, detector, bundle.test, bundle.norm_stats)
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=5)
    before = net.values.copy()
    tr.train(bundle, net, tr.TrainConfig(epochs=1, batch_size=8))
    assert net.values.tobytes() != before.tobytes()


SLOW_S = 0.5    # one batch of a slow run; a run has 8 of them


def _slow_split(bundle):
    """16 full scoring batches of the test split's rows: 8 per run on two
    workers, so a run that is not stopped takes at least 4 s."""
    return bundle.test[np.arange(16 * tr.SCORE_BATCH) % len(bundle.test)]


def _scoring(monkeypatch, here, worker):
    """per_sample_losses that calls ``here()`` on this thread and
    ``worker()`` on a worker thread before each batch, and scores 0."""
    main = threading.current_thread()

    def per_sample_losses(model, rows, *args):
        (here if threading.current_thread() is main else worker)()
        return np.zeros(len(rows))

    monkeypatch.setattr(ev, "per_sample_losses", per_sample_losses)


def _raise(exc_type):
    def raising():
        raise exc_type(f"raised on {threading.current_thread().name}")
    return raising


def _slow():
    time.sleep(SLOW_S)


def test_error_on_the_worker_thread_reaches_the_caller(three_batches,
                                                       monkeypatch):
    # and stops this thread's run after its current batch
    bundle, detector = three_batches
    started = _count_thread_starts(monkeypatch)
    _scoring(monkeypatch, here=_slow, worker=_raise(NumericalError))
    before, t0 = threading.active_count(), time.monotonic()
    with pytest.raises(NumericalError) as info:
        _evaluate(monkeypatch, 2, detector, _slow_split(bundle),
                  bundle.norm_stats)
    assert time.monotonic() - t0 < 2.5
    assert type(info.value) is NumericalError
    assert str(info.value) == f"raised on {started[0]}"
    assert threading.active_count() == before


@pytest.mark.parametrize("exc_type", [NumericalError, KeyboardInterrupt])
def test_error_here_stops_the_worker_threads(three_batches, monkeypatch,
                                             exc_type):
    bundle, detector = three_batches
    _scoring(monkeypatch, here=_raise(exc_type), worker=_slow)
    before, t0 = threading.active_count(), time.monotonic()
    with pytest.raises(exc_type,
                       match=f"on {threading.current_thread().name}"):
        _evaluate(monkeypatch, 2, detector, _slow_split(bundle),
                  bundle.norm_stats)
    # the worker's run stopped after its current batch
    assert time.monotonic() - t0 < 2.5
    assert threading.active_count() == before


def test_interrupt_while_waiting_stops_the_worker_threads(three_batches,
                                                          monkeypatch):
    # Ctrl-C after this thread's run, while it waits for the worker's
    bundle, detector = three_batches
    sent = []

    def interrupting():
        if not sent:
            time.sleep(0.2)     # the calling thread is waiting by now
            os.kill(os.getpid(), signal.SIGINT)
            sent.append(True)
        _slow()

    _scoring(monkeypatch, here=lambda: None, worker=interrupting)
    before, t0 = threading.active_count(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _evaluate(monkeypatch, 2, detector, _slow_split(bundle),
                  bundle.norm_stats)
    assert sent and time.monotonic() - t0 < 2.5
    assert threading.active_count() == before
