"""Hot numeric kernels in plain numpy, each a few GEMMs per call.

Every kernel is one of three correlation primitives on pre-padded float64
arrays; padding and gradient bookkeeping live in :mod:`dawnet.autodiff`.

Convolution convention is cross-correlation:

    conv1d_fw:  y[b,o,l]   = sum_{i,k} x[b,i,l*stride+k] * w[o,i,k]
    tconv1d_fw: y[b,q,i*stride+k] += x[b,p,i] * w[p,q,k]   (adjoint of conv)
    dwt_fw:     y[b,c,s,l] = sum_k   x[b,c,l+k] * kern[s,k]

The correlation ``_corr`` is one GEMM: ``_cols`` views the windows of x as
(B, Ci, K, Lo) with one read-only ``as_strided`` built from x's own
strides and copies that view once into a C-contiguous (B, Ci*K, Lo) im2col
array, cols[b, i*K+k, l] = x[b, i, l*stride+k], whose row order matches
``w.reshape(Co, Ci*K)``; w2 @ cols, batched over B, gives (B,Co,Lo). The
adjoints build no im2col array but do one GEMM per tap k, batched over B:
``_scatter`` adds tap k's (Ci,Co) weight times g into positions k,
k+stride, ... of the padded x-gradient, taps in increasing order, and
``_corr_gw`` copies x's stride phases once (phase r holds x[..., r::stride])
so that tap k = q*stride + r reads the contiguous window q..q+Lo-1 of
phase r, and sums g times that window over B.

Bias, finite check and ReLU are not kernels: autodiff applies them in
place to the kernel's output.

The wavelet kernels are the convolution ones on (B,C,.) viewed as
(B*C,1,.) and ``kern`` viewed as (S,1,K). Each public name is its own
module attribute, and none calls another, so each can be wrapped alone.
"""

import numpy as np

BACKEND = "numpy"


def _cols(x, k, stride):
    """(B,Ci,L) -> contiguous (B,Ci*K,Lo) im2col of the strided windows."""
    b, ci, length = x.shape
    if not 1 <= k <= length:
        raise ValueError(f"window of {k} taps does not fit length {length}")
    lo = (length - k) // stride + 1
    sb, sc, sl = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (b, ci, k, lo), (sb, sc, sl, sl * stride), writeable=False)
    return np.ascontiguousarray(win).reshape(b, ci * k, lo)


def _corr(x, w, stride):
    """(B,Ci,L) x (Co,Ci,K) -> (B,Co,Lo): windowed correlation."""
    co, ci, k = w.shape
    return np.matmul(w.reshape(co, ci * k), _cols(x, k, stride))


def _scatter(g, w, stride, lp):
    """Adjoint of ``_corr`` in x: (B,Co,Lo) x (Co,Ci,K) -> (B,Ci,lp)."""
    b, _, lo = g.shape
    _, ci, k = w.shape
    wk = np.ascontiguousarray(w.transpose(2, 0, 1))  # wk[k].T: (Ci,Co) of tap k
    gxp = np.zeros((b, ci, lp))
    tap = np.empty((b, ci, lo))
    span = (lo - 1) * stride + 1
    for kk in range(k):
        gxp[:, :, kk:kk + span:stride] += np.matmul(wk[kk].T, g, out=tap)
    return gxp


def _corr_gw(g, x, stride, k):
    """Adjoint of ``_corr`` in w: (B,Co,Lo) x (B,Ci,L) -> (Co,Ci,K)."""
    b, ci, length = x.shape
    lo = g.shape[2]
    # phases[b, i, r, j] = x[b, i, j*stride + r]; entries past the end of a
    # short phase lie beyond every tap's window and stay unread
    phases = np.empty((b, ci, stride, -(-length // stride)))
    for r in range(stride):
        phases[:, :, r, :(length - r - 1) // stride + 1] = x[:, :, r::stride]
    gw = np.empty((g.shape[1], ci, k))
    for kk in range(k):
        q, r = divmod(kk, stride)
        win = phases[:, :, r, q:q + lo]
        gw[:, :, kk] = np.matmul(g, win.transpose(0, 2, 1)).sum(axis=0)
    return gw


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
