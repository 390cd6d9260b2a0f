"""Hot numeric kernels in plain numpy, as im2col plus one GEMM per call.

Every kernel is one of three correlation primitives on pre-padded float64
arrays; padding and gradient bookkeeping live in :mod:`dawnet.autodiff`.

Convolution convention is cross-correlation:

    conv1d_fw:  y[b,o,l]   = sum_{i,k} x[b,i,l*stride+k] * w[o,i,k]
    tconv1d_fw: y[b,q,i*stride+k] += x[b,p,i] * w[p,q,k]   (adjoint of conv)
    dwt_fw:     y[b,c,s,l] = sum_k   x[b,c,l+k] * kern[s,k]

``_cols`` copies the strided windows of x once into a C-contiguous
(B, Ci*K, Lo) im2col array, cols[b, i*K+k, l] = x[b, i, l*stride+k], whose
row order matches ``w.reshape(Co, Ci*K)``. Each primitive is then one GEMM:
the correlation is w2 @ cols, batched over B, giving (B,Co,Lo) directly; its
x-adjoint is w2.T @ g to (B,Ci,K,Lo) folded back by K strided adds
(col2im); its w-adjoint is g @ cols^T batched over B and summed over B.

The wavelet kernels are the convolution ones on (B,C,.) viewed as
(B*C,1,.) and ``kern`` viewed as (S,1,K). Each public name is its own
module attribute, and none calls another, so each can be wrapped alone.
"""

import numpy as np

BACKEND = "numpy"


def _cols(x, k, stride):
    """(B,Ci,L) -> contiguous (B,Ci*K,Lo) im2col of the strided windows."""
    b, ci, _ = x.shape
    win = np.lib.stride_tricks.sliding_window_view(x, k, axis=-1)
    win = win[..., ::stride, :]                              # (B,Ci,Lo,K)
    return np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(
        b, ci * k, win.shape[2])


def _corr(x, w, stride):
    """(B,Ci,L) x (Co,Ci,K) -> (B,Co,Lo): windowed correlation."""
    co, ci, k = w.shape
    return np.matmul(w.reshape(co, ci * k), _cols(x, k, stride))


def _scatter(g, w, stride, lp):
    """Adjoint of ``_corr`` in x: (B,Co,Lo) x (Co,Ci,K) -> (B,Ci,lp)."""
    b, _, lo = g.shape
    co, ci, k = w.shape
    cols = np.matmul(w.reshape(co, ci * k).T, g).reshape(b, ci, k, lo)
    gxp = np.zeros((b, ci, lp))
    span = (lo - 1) * stride + 1
    for kk in range(k):
        gxp[:, :, kk:kk + span:stride] += cols[:, :, kk]
    return gxp


def _corr_gw(g, x, stride, k):
    """Adjoint of ``_corr`` in w: (B,Co,Lo) x (B,Ci,L) -> (Co,Ci,K)."""
    co, ci = g.shape[1], x.shape[1]
    cols = _cols(x, k, stride)
    return np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(co, ci, k)


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
