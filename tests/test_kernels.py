"""Backend kernel checks: frozen examples, adjoint identities, defining sums."""

import numpy as np
import pytest

from dawnet import backend, model


def _rng(seed=0):
    return np.random.default_rng(seed)


def _rand(rng, *shape):
    return np.ascontiguousarray(rng.standard_normal(shape))


# --- frozen examples -------------------------------------------------------

def test_conv_basic_example():
    x = np.array([[[1.0, 2.0, 3.0]]])
    w = np.array([[[1.0, 1.0]]])
    y = backend.conv1d_fw(x, w, 1)
    np.testing.assert_allclose(y, [[[3.0, 5.0]]])


def test_conv_output_length_formula():
    rng = _rng(1)
    for length, k, s in [(10, 3, 1), (10, 3, 2), (17, 5, 3), (8, 8, 1), (9, 2, 4)]:
        x = _rand(rng, 2, 3, length)
        w = _rand(rng, 4, 3, k)
        y = backend.conv1d_fw(x, w, s)
        assert y.shape == (2, 4, (length - k) // s + 1)


def test_tconv_basic_example():
    x = np.array([[[1.0, 0.0]]])
    w = np.array([[[1.0, 2.0]]])
    y = backend.tconv1d_fw(x, w, 2)
    np.testing.assert_allclose(y, [[[1.0, 2.0, 0.0, 0.0]]])


def test_tconv_output_length():
    rng = _rng(2)
    for length, k, s in [(4, 3, 2), (7, 5, 1), (3, 4, 4)]:
        x = _rand(rng, 2, 3, length)
        w = _rand(rng, 3, 5, k)
        y = backend.tconv1d_fw(x, w, s)
        assert y.shape == (2, 5, (length - 1) * s + k)


# --- adjoint identities ----------------------------------------------------

@pytest.mark.parametrize("length,k,s", [(12, 4, 1), (12, 4, 2), (15, 5, 3)])
def test_conv_tconv_adjoint(length, k, s):
    # <conv(x, w), y> == <x, tconv(y, w)> with the shared (Co,Ci,K) layout
    rng = _rng(3)
    x = _rand(rng, 2, 3, length)
    w = _rand(rng, 4, 3, k)
    lo = (length - k) // s + 1
    y = _rand(rng, 2, 4, lo)
    lhs = float(np.sum(backend.conv1d_fw(x, w, s) * y))
    # tconv consumes (B,Co,Lo) against w viewed as (Co,Ci,K); pad the tail
    # that conv never touched when (L-K) % stride != 0
    back = backend.tconv1d_fw(y, w, s)
    if back.shape[2] < length:
        back = np.pad(back, [(0, 0), (0, 0), (0, length - back.shape[2])])
    rhs = float(np.sum(x * back[..., :length]))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_conv_gx_matches_tconv():
    rng = _rng(4)
    x = _rand(rng, 2, 3, 14)
    w = _rand(rng, 4, 3, 5)
    g = _rand(rng, 2, 4, (14 - 5) // 2 + 1)
    gx = backend.conv1d_gx(g, w, 2, 14)
    ref = backend.tconv1d_fw(g, w, 2)
    pad = 14 - ref.shape[2]
    if pad > 0:
        ref = np.pad(ref, [(0, 0), (0, 0), (0, pad)])
    np.testing.assert_allclose(gx, ref[..., :14], atol=1e-12)


# --- dwt -------------------------------------------------------------------

def test_dwt_shape_and_values():
    x = np.zeros((1, 1, 5))
    x[0, 0, 2] = 1.0
    kern = np.array([[0.5, 1.0, 0.25]])
    xp = np.pad(x, [(0, 0), (0, 0), (1, 1)], mode="reflect")
    y = backend.dwt_fw(np.ascontiguousarray(xp), kern)
    assert y.shape == (1, 1, 1, 5)
    # correlation of a unit impulse reproduces the kernel (reversed offsets)
    np.testing.assert_allclose(y[0, 0, 0], [0.0, 0.25, 1.0, 0.5, 0.0])


def test_dwt_linear():
    rng = _rng(5)
    a = _rand(rng, 2, 3, 20)
    b = _rand(rng, 2, 3, 20)
    kern = _rand(rng, 3, 7)
    lhs = backend.dwt_fw(np.ascontiguousarray(2.0 * a + 3.0 * b), kern)
    rhs = 2.0 * backend.dwt_fw(a, kern) + 3.0 * backend.dwt_fw(b, kern)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# --- defining sums ---------------------------------------------------------

def _taps(x, k, s, n):
    # x[..., l*s + k] for l in range(n)
    return x[..., k:k + (n - 1) * s + 1:s]


def _corr_sum(x, w, s, lo):
    # y[b,o,l] = sum_{i,k} x[b,i,l*s+k] w[o,i,k]
    return sum(np.einsum("bil,oi->bol", _taps(x, kk, s, lo), w[:, :, kk])
               for kk in range(w.shape[2]))


def _scatter_sum(g, w, s, length):
    # gx[b,i,l*s+k] += g[b,o,l] w[o,i,k]
    gx = np.zeros((g.shape[0], w.shape[1], length))
    for kk in range(w.shape[2]):
        _taps(gx, kk, s, g.shape[2])[...] += np.einsum("bol,oi->bil", g,
                                                       w[:, :, kk])
    return gx


def _corr_gw_sum(g, x, s, k):
    # gw[o,i,k] = sum_{b,l} g[b,o,l] x[b,i,l*s+k]
    return np.stack([np.einsum("bol,bil->oi", g, _taps(x, kk, s, g.shape[2]))
                     for kk in range(k)], axis=2)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_kernels_match_defining_sums(s):
    rng = _rng(6)
    length, k = 21, 5
    lo = (length - k) // s + 1
    x = _rand(rng, 2, 3, length)
    w = _rand(rng, 4, 3, k)
    g = _rand(rng, 2, 4, lo)

    np.testing.assert_allclose(backend.conv1d_fw(x, w, s),
                               _corr_sum(x, w, s, lo), atol=1e-12)
    np.testing.assert_allclose(backend.conv1d_gx(g, w, s, length),
                               _scatter_sum(g, w, s, length), atol=1e-12)
    np.testing.assert_allclose(backend.conv1d_gw(g, x, s, k),
                               _corr_gw_sum(g, x, s, k), atol=1e-12)

    # transposed conv: (B,Cp,L) x (Cp,Cq,K) -> (B,Cq,(L-1)*s+K)
    xt = _rand(rng, 2, 4, 6)
    lt = (6 - 1) * s + k
    gt = _rand(rng, 2, 3, lt)
    yt = np.zeros((2, 3, lt))
    for kk in range(k):
        _taps(yt, kk, s, 6)[...] += np.einsum("bpi,pq->bqi", xt, w[:, :, kk])
    np.testing.assert_allclose(backend.tconv1d_fw(xt, w, s), yt, atol=1e-12)
    gxt = sum(np.einsum("bqi,pq->bpi", _taps(gt, kk, s, 6), w[:, :, kk])
              for kk in range(k))
    np.testing.assert_allclose(backend.tconv1d_gx(gt, w, s), gxt, atol=1e-12)
    gwt = np.stack([np.einsum("bpi,bqi->pq", xt, _taps(gt, kk, s, 6))
                    for kk in range(k)], axis=2)
    np.testing.assert_allclose(backend.tconv1d_gw(gt, xt, s, k), gwt,
                               atol=1e-12)

    # wavelet transform, stride 1: (B,C,Lp) x (S,K) -> (B,C,S,Lp-K+1)
    kd = 3 + s
    ld = length - kd + 1
    kern = _rand(rng, 3, kd)
    gd = _rand(rng, 2, 3, 3, ld)
    yd = sum(np.einsum("bcl,s->bcsl", _taps(x, kk, 1, ld), kern[:, kk])
             for kk in range(kd))
    np.testing.assert_allclose(backend.dwt_fw(x, kern), yd, atol=1e-12)
    gxd = np.zeros_like(x)
    for kk in range(kd):
        _taps(gxd, kk, 1, ld)[...] += np.einsum("bcsl,s->bcl", gd, kern[:, kk])
    np.testing.assert_allclose(backend.dwt_gx(gd, kern, length), gxd,
                               atol=1e-12)
    gk = np.stack([np.einsum("bcsl,bcl->s", gd, _taps(x, kk, 1, ld))
                   for kk in range(kd)], axis=1)
    np.testing.assert_allclose(backend.dwt_gk(gd, x), gk, atol=1e-12)


def _model_conv_shapes():
    """(Ci, Co, K, stride, padded length) of every conv the model runs."""
    rows, length = [], model.INPUT_LEN
    for ci, co, k, s, pad, _ in model.ENCODER:
        rows.append((ci, co, k, s, length + 2 * pad))
        length = (length + 2 * pad - k) // s + 1
    c, r = model.LATENT_CHANNELS, model.REDUCTION
    rows += [(c, c // r, 1, 1, length), (c, c, 1, 1, length)]  # attention
    # a transposed conv (Cp, Cq, K) is the adjoint of a conv with Co = Cp
    length = model.LATENT_LEN
    for cp, cq, k, s in model.DECODER:
        length = (length - 1) * s + k
        rows.append((cq, cp, k, s, length))
    return rows


def _assert_matches(got, ref):
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("ci,co,k,s,lp", _model_conv_shapes())
def test_kernels_at_model_shapes(ci, co, k, s, lp):
    # K=7 stride 2 on even padded lengths leaves a tail that no window
    # reaches; K=14 stride 12 is the stride-adjusting encoder layer
    rng = _rng(7)
    lo = (lp - k) // s + 1
    x = _rand(rng, 3, ci, lp)
    w = _rand(rng, co, ci, k)
    g = _rand(rng, 3, co, lo)
    _assert_matches(backend.conv1d_fw(x, w, s), _corr_sum(x, w, s, lo))
    _assert_matches(backend.conv1d_gx(g, w, s, lp),
                    _scatter_sum(g, w, s, lp))
    _assert_matches(backend.conv1d_gw(g, x, s, k), _corr_gw_sum(g, x, s, k))
    # the transposed conv with the same weight maps (B,Co,Lo) back to
    # (B,Ci,(Lo-1)*s+K)
    lt = (lo - 1) * s + k
    xt = x[..., :lt].copy()
    _assert_matches(backend.tconv1d_fw(g, w, s), _scatter_sum(g, w, s, lt))
    _assert_matches(backend.tconv1d_gx(xt, w, s), _corr_sum(xt, w, s, lo))
    _assert_matches(backend.tconv1d_gw(xt, g, s, k),
                    _corr_gw_sum(g, xt, s, k))
