"""Wavelet bank oracles: tap values, norms, linearity, loss identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawnet import autodiff as ad
from dawnet import backend, wavelet
from dawnet import simulate as sim
from dawnet import training as tr
from dawnet.errors import ConfigError
from dawnet.model import DualDomainAutoencoder, ModelConfig


def test_morlet_tap_value_before_norm():
    # tap at t=4 for scale 4: cos(1)*exp(-0.5)
    scale, kernel_len = 4.0, 64
    half = kernel_len // 2
    tau = np.arange(-half, kernel_len - half, dtype=np.float64)
    raw = np.cos(tau / scale) * np.exp(-(tau**2) / (2 * scale**2))
    expected = math.cos(1.0) * math.exp(-0.5)
    np.testing.assert_allclose(raw[half + 4], expected, atol=1e-12)
    assert abs(expected - 0.3277) < 5e-5
    # the normalized kernel keeps the same direction
    k = wavelet.morlet_kernel(scale, kernel_len)
    np.testing.assert_allclose(k, raw / np.linalg.norm(raw), atol=1e-12)


def test_center_tap_is_peak():
    k = wavelet.morlet_kernel(8.0, 64)
    assert np.argmax(k) == 32  # t=0 position for even length


def test_bank_shapes_and_norms():
    bank = wavelet.build_bank([4, 8, 16])
    assert bank.kernels.shape == (3, 64)
    norms = np.linalg.norm(bank.kernels, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_bank_rejects_bad_scales():
    with pytest.raises(ConfigError):
        wavelet.build_bank([4, 4, 8])
    with pytest.raises(ConfigError):
        wavelet.build_bank([])
    # 4x the scale must be a finite float tap count too
    for scale in (float("inf"), float("nan"), 1e308, 10**400):
        with pytest.raises(ConfigError):
            wavelet.build_bank([4, scale])
    with pytest.raises(ConfigError):
        wavelet.morlet_kernel(0.0, 16)
    with pytest.raises(ConfigError):
        wavelet.morlet_kernel(-2.0, 16)


def test_dwt_preserves_length():
    bank = wavelet.build_bank([4, 8, 16])
    x = ad.Tensor(np.random.default_rng(0).standard_normal((2, 2, 100)))
    y = ad.dwt(x, bank.kernels)
    assert y.data.shape == (2, 2, 3, 100)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.integers(0, 2**31 - 1))
def test_dwt_linearity(alpha, beta, seed):
    bank = wavelet.build_bank([2, 5])
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((1, 1, 40))
    b = rng.standard_normal((1, 1, 40))
    lhs = ad.dwt(ad.Tensor(alpha * a + beta * b), bank.kernels).data
    rhs = (alpha * ad.dwt(ad.Tensor(a), bank.kernels).data
           + beta * ad.dwt(ad.Tensor(b), bank.kernels).data)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_wavelet_loss_equals_sum_of_scale_mses():
    bank = wavelet.build_bank([4, 8, 16])
    rng = np.random.default_rng(7)
    xh = rng.standard_normal((2, 2, 64))
    x = rng.standard_normal((2, 2, 64))
    rows, gd = wavelet.wavelet_loss(xh - x, bank)
    assert rows.shape == (2, 2) and gd.shape == xh.shape
    dh = ad.dwt(ad.Tensor(xh), bank.kernels).data
    dr = ad.dwt(ad.Tensor(x), bank.kernels).data
    manual = sum(np.mean((dh[:, :, s] - dr[:, :, s]) ** 2, axis=-1)
                 for s in range(3))
    np.testing.assert_allclose(rows, manual, atol=1e-12)


def test_wavelet_loss_zero_for_identical_inputs():
    bank = wavelet.build_bank([4, 8])
    x = np.random.default_rng(1).standard_normal((1, 2, 50))
    rows, gd = wavelet.wavelet_loss(x - x.copy(), bank)
    assert not rows.any() and not gd.any()


def test_wavelet_loss_grad():
    # the wavelet term alone, through the training loss's tape node
    bank = wavelet.build_bank([2, 4])
    rng = np.random.default_rng(9)
    xh = ad.Tensor(rng.standard_normal((2, 16)), requires_grad=True)
    x = rng.standard_normal((2, 16))

    def f():
        return tr.composite_loss(xh, x, bank, 0.0, 1.0)

    assert ad.grad_check(f, [xh]) < 1e-4


# --- Gram operator: the loss as d.G d against the DWT definition ---------------

def _dwt_reference(xh, x, kernels):
    """Loss, x-hat gradient and per-row energies of (B,C,L) inputs through
    ``ad.dwt``, the defining transform."""
    xh_t = ad.Tensor(xh, requires_grad=True)
    d_hat = ad.dwt(xh_t, kernels)
    d_ref = ad.dwt(ad.Tensor(x), kernels)
    loss = ad.scale(ad.mse(d_hat, d_ref), float(kernels.shape[0]))
    ad.backward(loss)
    diff = d_hat.data - d_ref.data
    rows = kernels.shape[0] * np.mean(diff * diff, axis=(2, 3))
    return float(loss.data), xh_t.grad, rows


def _gram_result(xh, x, bank):
    """The same through the training loss (wavelet term alone) over the
    B*C rows, and :func:`wavelet.wavelet_loss`."""
    length = xh.shape[-1]
    xh_t = ad.Tensor(xh.reshape(-1, length), requires_grad=True)
    loss = tr.composite_loss(xh_t, x.reshape(-1, length), bank, 0.0, 1.0)
    ad.backward(loss)
    rows, _ = wavelet.wavelet_loss(xh - x, bank)
    return float(loss.data), xh_t.grad.reshape(xh.shape), rows


def _assert_matches_reference(xh, x, bank):
    ref = _dwt_reference(xh, x, bank.kernels)
    got = _gram_result(xh, x, bank)
    assert abs(got[0] - ref[0]) <= 1e-12 * abs(ref[0])
    np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[2], ref[2], rtol=1e-12, atol=0)


@pytest.mark.parametrize("scales", [(2, 4), (2, 5), (4, 8, 16)],
                         ids=["2-4", "2-5", "4-8-16"])
@pytest.mark.parametrize("length", [50, 100, 1600])
@pytest.mark.parametrize("channels", [1, 2])
def test_gram_loss_matches_dwt_definition(scales, length, channels):
    bank = wavelet.build_bank(scales)
    # K = 16, 20, 64: L = 50 and 100 are not multiples of any of them
    rng = np.random.default_rng(length + channels)
    xh = rng.standard_normal((3, channels, length))
    x = rng.standard_normal((3, channels, length))
    _assert_matches_reference(xh, x, bank)


def _dense_gram(kern, length):
    """Dense (L, L) G: A = sum_s k_s k_s^T added at every diagonal offset of
    the padded length, then folded through the reflect adjoint on both
    axes."""
    k = kern.shape[1]
    pl, pr = k // 2, k - 1 - k // 2
    padded = np.zeros((length + k - 1, length + k - 1))
    for i in range(length):
        padded[i:i + k, i:i + k] += kern.T @ kern
    return ad._unpad_fold(ad._unpad_fold(padded, pl, pr).T, pl, pr)


@pytest.mark.parametrize("scales", [(2, 4), (2, 5), (4, 8, 16)],
                         ids=["2-4", "2-5", "4-8-16"])
@pytest.mark.parametrize("length", [50, 100, 1600])
def test_gram_panels_match_dense_construction(scales, length):
    kern = wavelet.build_bank(scales).kernels
    k = kern.shape[1]
    gram = _dense_gram(kern, length)
    # band row u holds G[u, u-K+1 .. u+K-1]
    band = ad.dwt_gram(kern, length)
    framed = np.zeros((length, length + 2 * k - 2))
    for u in range(length):
        framed[u, u:u + 2 * k - 1] = band[u]
    np.testing.assert_allclose(framed[:, k - 1:k - 1 + length], gram,
                               rtol=0, atol=1e-12)
    assert not framed[:, :k - 1].any() and not framed[:, k - 1 + length:].any()
    # panel i is block column i of G over block rows i-1 .. i+1
    nb = -(-length // k)
    framed = np.zeros(((nb + 2) * k, nb * k))
    framed[k:k + length, :length] = gram
    ref = np.stack([framed[i * k:(i + 3) * k, i * k:(i + 1) * k]
                    for i in range(nb)])
    got = wavelet._gram_panels(kern, length)
    assert got.shape == ref.shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_bank_is_constant_and_gram_built_once_per_length(monkeypatch):
    # nothing trains the bank, so its kernels refuse a write and the G of
    # each signal length, once built, serves every later call
    kernels = np.stack([wavelet.morlet_kernel(s, 20) for s in (2, 5)])
    bank = wavelet.WaveletBank((2, 5), kernels)
    kernels[0, 7] += 0.25                           # the caller's copy
    assert bank.kernels[0, 7] != kernels[0, 7]
    with pytest.raises(ValueError):
        bank.kernels[0, 7] += 0.25
    built = []
    build = wavelet._gram_panels

    def counted(kern, length):
        built.append(length)
        return build(kern, length)

    monkeypatch.setattr(wavelet, "_gram_panels", counted)
    rng = np.random.default_rng(4)
    for length in (100, 100, 50, 100, 50):
        xh = rng.standard_normal((2, 1, length))
        x = rng.standard_normal((2, 1, length))
        _assert_matches_reference(xh, x, bank)
    assert built == [100, 50]


def test_gram_path_makes_no_dwt_kernel_calls(monkeypatch):
    calls = []
    for name in ("dwt_fw", "dwt_gx", "dwt_gk"):
        def counted(*args, _name=name, _fn=getattr(backend, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(backend, name, counted)
    bundle = sim.generate_dataset(2, (6, 4, 2))
    net = DualDomainAutoencoder(ModelConfig(), seed=1)
    bank = wavelet.build_bank((4, 8, 16))
    amp, psd = sim.model_inputs(bundle.train, bundle.norm_stats)
    target = np.concatenate([amp, psd], axis=1)
    loss = tr.composite_loss(net.forward(amp, psd), target,
                             bank, 1.0, 0.1)
    ad.backward(loss)
    tr.per_sample_losses(net, bundle.validation, bundle.norm_stats, bank,
                         1.0, 0.1)
    assert calls == []
    ad.dwt(ad.Tensor(target[:, None, :]), bank.kernels)   # the counter counts
    assert calls == ["dwt_fw"]
