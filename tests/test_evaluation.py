"""Metric oracles: AUC, ROC geometry, confusion arithmetic, timing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    amp, psd = sim.model_inputs(bundle.test[:4], bundle.norm_stats)
    amp, psd = amp[:, 0, :], psd[:, 0, :]
    secs = ev.time_inference(net, amp, psd, repeats=3)
    assert secs > 0.0 and np.isfinite(secs)
    with pytest.raises(ConfigError):
        ev.time_inference(net, amp, psd, repeats=2)


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
    want = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                                1.0, 0.1, batch_size=256)

    rows, batches = [], []
    forward, losses = net.forward, ev.per_sample_losses

    def counted_forward(amp, psd):
        rows.append(len(amp))
        return forward(amp, psd)

    def kept_losses(*args, **kwargs):
        batches.append(losses(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(net, "forward", counted_forward)
    monkeypatch.setattr(ev, "per_sample_losses", kept_losses)
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
