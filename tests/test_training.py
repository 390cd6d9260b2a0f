"""Loss assembly, optimizer behavior, loop determinism, threshold math."""

import math
import tracemalloc

import numpy as np
import pytest

from dawnet import autodiff as ad
from dawnet import model as m
from dawnet import simulate as sim
from dawnet import training as tr
from dawnet import wavelet
from dawnet.errors import ConfigError, NumericalError


def _bundle(seed=3, counts=(24, 8, 4)):
    return sim.generate_dataset(seed, counts)


def _net(ablation="full", seed=0):
    return m.DualDomainAutoencoder(m.ModelConfig(ablation=ablation), seed=seed)


# --- config -------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda2=-1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=0)


# --- composite loss -----------------------------------------------------------

def test_composite_loss_zero_at_target():
    bank = wavelet.build_bank((4, 8, 16))
    rng = np.random.default_rng(0)
    target = rng.standard_normal((2, 1600))
    xhat = ad.Tensor(target.copy())
    loss = tr.composite_loss(xhat, target, bank, 1.0, 0.1)
    assert float(loss.data) == 0.0


def test_composite_loss_reduces_to_mse():
    rng = np.random.default_rng(1)
    target = rng.standard_normal((3, 1600))
    xhat = ad.Tensor(rng.standard_normal((3, 1600)))
    loss = tr.composite_loss(xhat, target, None, 2.5, 0.0)
    want = 2.5 * np.mean((xhat.data - target) ** 2)
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-12)


def test_composite_loss_impulse_oracle():
    # unit-norm kernels: an interior impulse of height eps adds exactly
    # eps^2/N for the mse term and S*eps^2/N for the wavelet term
    bank = wavelet.build_bank((4, 8, 16))
    rng = np.random.default_rng(2)
    target = rng.standard_normal((1, 1600))
    eps = 0.25
    xhat = target.copy()
    xhat[0, 800] += eps
    loss = tr.composite_loss(ad.Tensor(xhat), target, bank, 1.0, 1.0)
    want = eps * eps / 1600.0 + 3.0 * eps * eps / 1600.0
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-9)


@pytest.mark.parametrize("lambda2", [0.0, 0.1])
def test_composite_loss_is_mean_of_per_sample_losses(lambda2):
    # training minimizes the batch mean of exactly the scores that
    # calibration and evaluation threshold
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16)) if lambda2 else None
    rows = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                                1.0, lambda2)
    amp, psd = sim.model_inputs(bundle.test, bundle.norm_stats)
    loss = tr.composite_loss(net.forward(amp, psd),
                             np.concatenate([amp, psd], axis=1), bank, 1.0,
                             lambda2)
    assert float(loss.data) == np.mean(rows)


def test_composite_loss_mse_gradient_matches_tape():
    # without the wavelet term the closed-form gradient is bitwise the one
    # the tape's mse and scale ops give
    rng = np.random.default_rng(3)
    target = rng.standard_normal((4, 1600))
    xhat = ad.Tensor(rng.standard_normal((4, 1600)), requires_grad=True)
    ad.backward(tr.composite_loss(xhat, target, None, 2.5, 0.0))
    got = xhat.grad
    xhat.grad = None
    ad.backward(ad.scale(ad.mse(xhat, target), 2.5))
    assert np.array_equal(got, xhat.grad)


def test_composite_loss_rejects_negative_weights():
    target = np.zeros((1, 1600))
    with pytest.raises(ConfigError):
        tr.composite_loss(ad.Tensor(target), target, None, -1.0, 0.0)


# --- optimizer ----------------------------------------------------------------

def test_adam_zero_lr_keeps_params():
    t = ad.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    before = t.data.copy()
    opt = tr.Adam([t], lr=0.0)
    t.grad = np.array([10.0, -5.0, 1.0])
    opt.step()
    np.testing.assert_array_equal(t.data, before)


def test_adam_in_place_matches_textbook_update():
    # the chunked in-place step must round exactly as the whole-array
    # out-of-place expression, or checkpoints stop being byte-identical
    # across versions: one parameter spans two full chunks and a partial
    # one, one is 0-d, one is a transposed (non-contiguous) view, and one
    # never gets a gradient
    rng = np.random.default_rng(4)
    shapes = [(3, 4, 5), (2 * tr.ADAM_CHUNK + 123,), (7,), (), (5, 4), (6,)]
    no_grad = len(shapes) - 1
    params = [ad.Tensor(rng.standard_normal(s), requires_grad=True)
              for s in shapes]
    params[4].data = rng.standard_normal((4, 5)).T
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    opt = tr.Adam(params, lr=3e-3)
    for t in range(1, 6):
        b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for i, p in enumerate(params):
            if i == no_grad:
                continue
            g = rng.standard_normal(shapes[i])
            p.grad = np.array(g)
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * (g * g)
            ref[i] = ref[i] - 3e-3 * (m[i] / b1t) / (np.sqrt(v[i] / b2t)
                                                      + 1e-8)
        opt.step()
        for got, want in zip((params, opt._m, opt._v), (ref, m, v)):
            for a, b in zip(got, want):
                a = a.data if isinstance(a, ad.Tensor) else a
                assert a.shape == b.shape and np.array_equal(a, b)


def test_adam_overflow_raises():
    # g * g overflows above about 1.3e154: v would turn inf and p[0] would
    # stop moving for good without a word
    t = ad.Tensor(np.ones(4), requires_grad=True)
    opt = tr.Adam([t])
    t.grad = np.array([1e200, 1.0, 1.0, 1.0])
    with np.errstate(over="ignore"):        # as `dawnet train` runs it
        with pytest.raises(NumericalError, match="overflow"):
            opt.step()


def test_adam_descends_quadratic():
    t = ad.Tensor(np.array(4.0), requires_grad=True)
    opt = tr.Adam([t], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = ad.mul(t, t)
        ad.backward(loss)
        opt.step()
    assert abs(float(t.data)) < 0.1


def test_training_step_memory_bounds():
    # one full-model B=64 step in the training loop's order, in traced
    # bytes (sizes, not timings): the forward tape keeps no padded conv
    # inputs, backward frees the tape as it goes, the conv adjoints build no
    # (B, Ci*K, Lo) im2col array, and Adam's scratch is one chunk-sized pair.
    # The tape holds 11.5 MB (20.8 MB before that design) and the step peaks
    # 23.9 MB above its start (28.4 MB with im2col adjoints, 50.7 MB before
    # the tape design); the peak bound leaves 2.1 MB (9%) for other numpy
    # versions and allocators
    rng = np.random.default_rng(0)
    amp, psd = rng.standard_normal((2, 64, m.INPUT_LEN))
    net = _net()
    lambda2, bank = tr.wavelet_term(net.config, 0.1, (4, 8, 16))
    opt = tr.Adam(net.params.tensors(), lr=1e-3)

    def step(after_forward=lambda: None):
        out = net.forward(amp, psd)
        after_forward()
        loss = tr.composite_loss(out, np.concatenate([amp, psd], axis=1),
                                 bank, 1.0, lambda2)
        opt.zero_grad()
        ad.backward(loss)
        opt.step()

    step()      # the first step builds the wavelet operator's cache
    tape = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(lambda: tape.append(tracemalloc.get_traced_memory()[0] - start))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert tape[0] <= 15e6
    assert peak <= 26e6


# --- training loop ------------------------------------------------------------

def test_train_history_length_and_validation():
    bundle = _bundle()
    net = _net()
    cfg = tr.TrainConfig(epochs=1, batch_size=8, wavelet_scales=(4, 8))
    history, lambda2, bank = tr.train(bundle, net, cfg)
    assert len(history) == 1
    assert lambda2 == 0.1 and bank.scales == (4.0, 8.0)
    bad = sim.DatasetBundle(train=bundle.test, validation=bundle.validation,
                            test=bundle.test, norm_stats=bundle.norm_stats)
    with pytest.raises(ConfigError):
        tr.train(bad, _net(), cfg)


def test_train_loss_decreases():
    bundle = _bundle(seed=11, counts=(96, 16, 8))
    net = _net(seed=1)
    cfg = tr.TrainConfig(epochs=10, batch_size=32, seed=5,
                         wavelet_scales=(4, 8))
    history, _, _ = tr.train(bundle, net, cfg)
    assert history[9] < history[0]


def test_train_deterministic():
    bundle = _bundle(seed=13, counts=(16, 4, 4))
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=3,
                         wavelet_scales=(4, 8))
    net_a = _net(seed=2)
    tr.train(bundle, net_a, cfg)
    net_b = _net(seed=2)
    tr.train(bundle, net_b, cfg)
    for name in net_a.params.names():
        np.testing.assert_array_equal(net_a.params[name].data,
                                      net_b.params[name].data)


def test_no_wavelet_ablation_equals_lambda2_zero():
    bundle = _bundle(seed=17, counts=(16, 4, 4))
    net_abl = _net(ablation="no_wavelet_loss", seed=4)
    net_l20 = _net(ablation="full", seed=4)
    tr.train(bundle, net_abl, tr.TrainConfig(epochs=2, batch_size=8, seed=6,
                                             lambda2=0.1))
    tr.train(bundle, net_l20, tr.TrainConfig(epochs=2, batch_size=8, seed=6,
                                             lambda2=0.0))
    for name in net_abl.params.names():
        np.testing.assert_array_equal(net_abl.params[name].data,
                                      net_l20.params[name].data)


def test_train_nan_abort_has_diagnostics():
    bundle = _bundle(seed=19, counts=(8, 4, 4))
    net = _net(seed=5)
    net.params["decoder.out.bias"].data[0] = np.nan
    cfg = tr.TrainConfig(epochs=3, batch_size=4, lambda2=0.0)
    with pytest.raises(NumericalError) as exc:
        tr.train(bundle, net, cfg)
    assert "epoch 0" in str(exc.value)


@pytest.mark.parametrize("lambda2", [0.0, 0.25])
@pytest.mark.parametrize("ablation", ["full", "no_mutual_attention",
                                      "no_wavelet_loss", "vanilla"])
def test_wavelet_term_bank_iff_weight(ablation, lambda2):
    cfg = m.ModelConfig(ablation=ablation)
    weight, bank = tr.wavelet_term(cfg, lambda2, (4, 8))
    assert weight == (lambda2 if cfg.uses_wavelet_loss else 0.0)
    assert (bank is None) == (weight == 0.0)
    if bank is not None:
        # the fixed bank of the scales: nothing in it is trained
        np.testing.assert_array_equal(bank.kernels,
                                      wavelet.build_bank((4, 8)).kernels)
        assert not bank.kernels.flags.writeable


def test_wavelet_term_refuses_bank_longer_than_signal():
    # reflect padding of K taps onto the 1600-sample signal needs K//2 < 1600
    cfg = m.ModelConfig()
    _, bank = tr.wavelet_term(cfg, 0.1, (799.75,))
    assert bank.kernel_len == 3199
    for scales in ((800,), (4, 1e12)):
        with pytest.raises(ConfigError):
            tr.wavelet_term(cfg, 0.1, scales)
    # variants without the wavelet term never build or check a bank
    assert tr.wavelet_term(m.ModelConfig(ablation="vanilla"), 0.1,
                           (1e12,)) == (0.0, None)


# --- scoring / threshold ------------------------------------------------------

def test_per_sample_losses_batch_invariant():
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16))
    a = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                             1.0, 0.1, batch_size=1)
    b = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                             1.0, 0.1, batch_size=5)
    np.testing.assert_allclose(a, b, atol=1e-10)
    assert np.all(a >= 0.0)


def test_per_sample_losses_match_dwt_definition():
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16))
    got = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                               1.0, 0.1, batch_size=5)
    amp, psd = sim.model_inputs(bundle.test, bundle.norm_stats)
    target = np.concatenate([amp, psd], axis=1)
    with ad.no_grad():
        recon = net.forward(amp, psd).data
    coeffs = (ad.dwt(ad.Tensor(recon[:, None]), bank.kernels).data
              - ad.dwt(ad.Tensor(target[:, None]), bank.kernels).data)
    want = (np.mean((recon - target) ** 2, axis=1)
            + 0.1 * 3 * np.mean(coeffs ** 2, axis=(1, 2, 3)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_threshold_arithmetic_oracles():
    t = tr.threshold_from_losses([3.5, 3.5, 3.5])
    assert t.value == 3.5 and t.sigma == 0.0
    t = tr.threshold_from_losses([0.0, 2.0])
    assert abs(t.value - 2.0) < 1e-12
    assert t.mu == 1.0 and t.sigma == 1.0
    t = tr.threshold_from_losses([1.0, 2.0, 3.0])
    assert abs(t.value - (2.0 + math.sqrt(2.0 / 3.0))) < 1e-9
    assert round(t.value, 4) == 2.8165


def test_threshold_exactness_invariant():
    rng = np.random.default_rng(31)
    t = tr.threshold_from_losses(rng.uniform(0, 5, size=257))
    assert t.value == t.mu + t.sigma  # bitwise, not approximately


def test_calibrate_threshold_contract():
    bundle = _bundle(seed=37, counts=(8, 4, 4))
    net = _net(seed=8)
    th = tr.calibrate_threshold(net, bundle.validation, bundle.norm_stats,
                                None, 1.0, 0.0)
    assert th.value == th.mu + th.sigma
    with pytest.raises(ConfigError):
        tr.calibrate_threshold(net, [], bundle.norm_stats, None, 1.0, 0.0)
    with pytest.raises(ConfigError):
        tr.calibrate_threshold(net, bundle.test, bundle.norm_stats, None,
                               1.0, 0.0)
