"""Hot numeric kernels in plain numpy.

Every kernel is one of three correlation primitives on pre-padded float64
arrays; padding and gradient bookkeeping live in :mod:`dawnet.autodiff`.

Convolution convention is cross-correlation:

    conv1d_fw:  y[b,o,l]   = sum_{i,k} x[b,i,l*stride+k] * w[o,i,k]
    tconv1d_fw: y[b,q,i*stride+k] += x[b,p,i] * w[p,q,k]   (adjoint of conv)
    dwt_fw:     y[b,c,s,l] = sum_k   x[b,c,l+k] * kern[s,k]

The wavelet kernels are the convolution ones on (B,C,.) viewed as
(B*C,1,.) and ``kern`` viewed as (S,1,K). Each public name is its own
module attribute, and none calls another, so each can be wrapped alone.
"""

import numpy as np

BACKEND = "numpy"


def _windows(x, k, stride=1):
    # (B, C, L, k) view over the last axis, strided
    w = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
    return w[..., ::stride, :]


def _corr(x, w, stride):
    """(B,Ci,L) x (Co,Ci,K) -> (B,Co,Lo): windowed correlation."""
    win = _windows(x, w.shape[2], stride)                    # (B,Ci,Lo,K)
    y = np.tensordot(win, w, axes=([1, 3], [1, 2]))          # (B,Lo,Co)
    return np.ascontiguousarray(y.transpose(0, 2, 1))


def _scatter(g, w, stride, lp):
    """Adjoint of ``_corr`` in x: (B,Co,Lo) x (Co,Ci,K) -> (B,Ci,lp)."""
    b, _, lo = g.shape
    ci, k = w.shape[1], w.shape[2]
    gxp = np.zeros((b, ci, lp))
    span = (lo - 1) * stride + 1
    for kk in range(k):
        contrib = np.tensordot(g, w[:, :, kk], axes=([1], [0]))  # (B,Lo,Ci)
        gxp[:, :, kk:kk + span:stride] += contrib.transpose(0, 2, 1)
    return gxp


def _corr_gw(g, x, stride, k):
    """Adjoint of ``_corr`` in w: (B,Co,Lo) x (B,Ci,L) -> (Co,Ci,K)."""
    win = _windows(x, k, stride)                             # (B,Ci,Lo,K)
    return np.ascontiguousarray(np.tensordot(g, win, axes=([0, 2], [0, 2])))


conv1d_fw = _corr                    # (xp, w, stride)
conv1d_gx = _scatter                 # (gy, w, stride, lp)
conv1d_gw = _corr_gw                 # (gy, xp, stride, k)
tconv1d_gx = _corr                   # (gy, w, stride)


def tconv1d_fw(x, w, stride):
    return _scatter(x, w, stride, (x.shape[2] - 1) * stride + w.shape[2])


def tconv1d_gw(gy, x, stride, k):
    return _corr_gw(x, gy, stride, k)


def dwt_fw(xp, kern):
    b, c, lp = xp.shape
    y = _corr(xp.reshape(b * c, 1, lp), kern[:, None, :], 1)
    return y.reshape(b, c, kern.shape[0], -1)


def dwt_gx(gy, kern, lp):
    b, c, s, lo = gy.shape
    return _scatter(gy.reshape(b * c, s, lo), kern[:, None, :], 1,
                    lp).reshape(b, c, lp)


def dwt_gk(gy, xp):
    b, c, s, lo = gy.shape
    k = xp.shape[2] - lo + 1
    gk = _corr_gw(gy.reshape(b * c, s, lo), xp.reshape(b * c, 1, -1), 1, k)
    return gk.reshape(s, k)
