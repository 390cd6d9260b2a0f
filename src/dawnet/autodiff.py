"""Tape-based reverse-mode autodiff over dense float64 arrays.

Small by design: only the ops the detector needs, each with a hand-written
backward closure. Graphs are built eagerly during the forward pass and
replayed in reverse topological order by :func:`backward`, which consumes
the graph it walks: each interior node lets go of its gradient, closure and
parents once its closure has run, so run one backward per forward. The
convolution inner loops dispatch to :mod:`dawnet.backend`.

A conv layer is one tape node: :func:`conv1d` and :func:`conv1d_transpose`
add the bias to the kernel's output in place, check the pre-activation for
non-finite values once and apply the optional ReLU in place, and their
backward masks the gradient once before the kernel adjoints. A
:func:`conv1d` node keeps only its unpadded input: the x-adjoint needs just
the padded length, and the weight gradient pads the input again.

The reference ops that the tests hold this module to (a separate ReLU and
channel bias, which a fused conv node matches bitwise, the wavelet
transform ``dwt`` and the gradient checker) live in ``tests/oracles.py``.
"""

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from . import backend
from .errors import ConfigError, DawnetError, NumericalError, ShapeError

# per thread: a thread's no_grad block leaves every other thread's graph
# building as it was, however the blocks of two threads overlap
_grad_enabled = ContextVar("grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph construction (inference / finite differences) in this
    thread."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    """Dense float64 array plus an optional gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_finite(arr):
    if not np.isfinite(arr).all():
        raise NumericalError("non-finite values produced by a forward op")


def _make(data, parents, backward_fn) -> Tensor:
    _check_finite(data)
    return _node(data, parents, backward_fn)


def _node(data, parents, backward_fn) -> Tensor:
    """Tape node over already-checked ``data``."""
    out = Tensor(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accumulate(t: Tensor, g):
    if not t.requires_grad:
        return
    if not np.isfinite(g).all():
        raise NumericalError("non-finite gradient")
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss: Tensor):
    """Populate ``.grad`` on every reachable leaf with requires_grad.

    Consumes the graph as it goes: once an interior node's closure has run,
    the node drops its gradient, its closure and its parents, so that what
    only backward still needed is freed before the walk ends. A second
    backward through any consumed node raises ``DawnetError`` before it
    changes a gradient.
    """
    if loss.data.ndim != 0:
        raise ShapeError("backward expects a scalar loss")
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed()             # before any closure touches a gradient
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    loss.grad = np.array(1.0)
    while order:
        node = order.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._backward = _consumed
        node._parents = ()


def _consumed(g=None):
    """Backward closure of a node whose own closure has already run."""
    raise DawnetError("backward through a graph that an earlier backward "
                      "consumed; run one backward per forward")


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(a.data + b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bw(g):
        _accumulate(a, g * c)

    return _make(a.data * c, (a,), bw)


def mul_scalar(a: Tensor, s: Tensor) -> Tensor:
    """Multiply by a trained 0-d tensor (the attention gate)."""
    a, s = as_tensor(a), as_tensor(s)
    if s.data.ndim != 0:
        raise ShapeError("mul_scalar expects a 0-d scalar tensor")

    def bw(g):
        _accumulate(a, g * s.data)
        _accumulate(s, np.sum(g * a.data))

    return _make(a.data * s.data, (a, s), bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a per-feature bias over (B,F)."""
    x, b = as_tensor(x), as_tensor(b)
    if b.data.ndim != 1:
        raise ShapeError("bias must be 1-d")
    if x.data.ndim != 2:
        raise ShapeError("add_bias expects a (B,F) input")
    if x.data.shape[1] != b.data.shape[0]:
        raise ShapeError("bias length must match feature count")

    def bw(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0))

    return _make(x.data + b.data, (x, b), bw)


def reshape(x: Tensor, shape) -> Tensor:
    x = as_tensor(x)
    in_shape = x.data.shape

    def bw(g):
        _accumulate(x, g.reshape(in_shape))

    return _make(x.data.reshape(shape), (x,), bw)


def swap_cl(x: Tensor) -> Tensor:
    """Transpose the channel and length axes of a (B,C,L) tensor."""
    x = as_tensor(x)
    if x.data.ndim != 3:
        raise ShapeError("swap_cl expects a rank-3 tensor")

    def bw(g):
        _accumulate(x, np.ascontiguousarray(g.swapaxes(1, 2)))

    return _make(np.ascontiguousarray(x.data.swapaxes(1, 2)), (x,), bw)


def concat(parts, axis=1) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(idx)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; rank 2 or batched rank 3 on both sides."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != b.data.ndim or a.data.ndim not in (2, 3):
        raise ShapeError("matmul expects two rank-2 or two rank-3 tensors")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")

    def bw(g):
        _accumulate(a, g @ b.data.swapaxes(-1, -2))
        _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _make(a.data @ b.data, (a, b), bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Numerically-stable softmax over the last axis."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = np.sum(g * y, axis=-1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _make(y, (x,), bw)


def scalar(x: Tensor, value, dx: np.ndarray) -> Tensor:
    """0-d node of ``value`` whose gradient in ``x`` is ``dx``.

    For a loss whose gradient the caller has in closed form: the tape keeps
    only ``dx``.
    """
    x = as_tensor(x)
    if dx.shape != x.data.shape:
        raise ShapeError(f"scalar gradient shape {dx.shape} does not match "
                         f"its input {x.data.shape}")

    def bw(g):
        _accumulate(x, g * dx)

    return _make(np.array(value, dtype=np.float64), (x,), bw)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||_2 over the last axis; rejects zero vectors."""
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise NumericalError("cannot L2-normalize a zero vector")
    return v / norm


# ---------------------------------------------------------------------------
# padding helpers
# ---------------------------------------------------------------------------

def _pad_last(x, pl, pr):
    """np.pad of the last axis in "reflect" mode, written into one new
    buffer by slicing."""
    if pl == 0 and pr == 0:
        return x
    n = x.shape[-1]
    if pl >= n or pr >= n:
        raise ShapeError(
            f"reflect padding ({pl},{pr}) needs input length > {max(pl, pr)}")
    out = np.empty(x.shape[:-1] + (pl + n + pr,), dtype=x.dtype)
    out[..., pl:pl + n] = x
    out[..., :pl] = x[..., pl:0:-1]
    out[..., pl + n:] = x[..., n - 1 - pr:n - 1][..., ::-1]
    return out


def _unpad_fold(gxp, pl, pr):
    """Adjoint of _pad_last: route padded-region gradients back to sources."""
    length = gxp.shape[-1] - pl - pr
    gx = np.ascontiguousarray(gxp[..., pl:pl + length])
    if pl:
        gx[..., 1:1 + pl] += gxp[..., :pl][..., ::-1]
    if pr:
        gx[..., length - 1 - pr:length - 1] += gxp[..., -pr:][..., ::-1]
    return gx


# ---------------------------------------------------------------------------
# convolution ops
# ---------------------------------------------------------------------------

def _conv_node(y, x, w, b, relu, adjoints) -> Tensor:
    """One tape node for a conv layer from the kernel output ``y``.

    Adds the bias to y in place, checks the pre-activation once (before the
    ReLU, which would map -inf to 0) and applies the ReLU in place. The
    backward masks the gradient once, sums the bias gradient and passes the
    pre-activation gradient to ``adjoints`` for x and w.
    """
    parents = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.data.ndim != 1:
            raise ShapeError("bias must be 1-d")
        if b.data.shape[0] != y.shape[1]:
            raise ShapeError("bias length must match channel count")
        y += b.data[:, None]
        parents += (b,)
    _check_finite(y)
    if relu:
        np.maximum(y, 0.0, out=y)

    def bw(g):
        if relu:
            g = g * (y > 0.0)
        if b is not None:
            _accumulate(b, g.sum(axis=(0, 2)))
        adjoints(np.ascontiguousarray(g))

    return _node(y, parents, bw)


def conv1d(x: Tensor, w: Tensor, b=None, stride=1, padding=0,
           relu=False) -> Tensor:
    """Cross-correlation of (B,Cin,L) with (Cout,Cin,K) kernels over the
    input reflect-padded by ``padding`` on both sides, plus an optional
    per-channel bias and ReLU, as one tape node."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError("conv1d expects (B,Cin,L) input and (Cout,Cin,K) weight")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError("conv1d channel mismatch")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    k = w.data.shape[2]
    if k > x.data.shape[2] + 2 * padding:
        raise ShapeError("kernel longer than padded input")

    def padded():
        return np.ascontiguousarray(_pad_last(x.data, padding, padding))

    y = backend.conv1d_fw(padded(), np.ascontiguousarray(w.data), stride)
    lp = x.data.shape[2] + 2 * padding

    def adjoints(g):
        if x.requires_grad:
            gxp = backend.conv1d_gx(g, w.data, stride, lp)
            _accumulate(x, _unpad_fold(gxp, padding, padding))
        if w.requires_grad:
            _accumulate(w, backend.conv1d_gw(g, padded(), stride, k))

    return _conv_node(y, x, w, b, relu, adjoints)


def conv1d_transpose(x: Tensor, w: Tensor, b=None, stride=1,
                     relu=False) -> Tensor:
    """Adjoint of conv1d: (B,Cp,L) x (Cp,Cq,K) -> (B,Cq,(L-1)*stride+K),
    plus an optional per-channel bias and ReLU, as one tape node."""
    x, w = as_tensor(x), as_tensor(w)
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError("conv1d_transpose expects rank-3 input and weight")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError("conv1d_transpose channel mismatch")
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    k = w.data.shape[2]
    y = backend.tconv1d_fw(np.ascontiguousarray(x.data),
                           np.ascontiguousarray(w.data), stride)

    def adjoints(g):
        if x.requires_grad:
            _accumulate(x, backend.tconv1d_gx(g, w.data, stride))
        if w.requires_grad:
            _accumulate(w, backend.tconv1d_gw(g, x.data, stride, k))

    return _conv_node(y, x, w, b, relu, adjoints)


def _dwt_pads(k: int) -> tuple:
    """(left, right) reflect padding that keeps a K-tap wavelet transform
    length-preserving."""
    return k // 2, k - 1 - k // 2


def dwt_gram(kernels: np.ndarray, length: int) -> np.ndarray:
    """G = W^T W of the wavelet transform W at ``length``, as a band: W
    reflect-pads by :func:`_dwt_pads` and correlates with each kernel row.

    Returns (L, 2K-1) with band[u, K-1+e] = G[u, u+e]: every row of W reads
    K consecutive padded samples, so G is banded with half-width K-1. In
    padded coordinates every output sample adds A = sum_s k_s k_s^T at its
    own diagonal offset, so padded entry (a, a+e) sums a run of A's e-th
    diagonal: all of it in the interior (a Toeplitz band), a shorter run
    within K of either end. The reflect padding copies source sample
    src[a] to padded sample a, so its adjoint adds padded entry (a, b) to
    G[src[a], src[b]], which stays in the band.
    """
    k = kernels.shape[1]
    pl, pr = _dwt_pads(k)
    src = _pad_last(np.arange(length), pl, pr)   # padded -> source
    n = src.size
    a = kernels.T @ kernels
    offs = np.arange(1 - k, k)                               # e
    q = np.arange(k) + offs[:, None]
    diags = np.where((q >= 0) & (q < k), a[np.arange(k), np.clip(q, 0, k - 1)],
                     0.0)                                    # (2K-1, K)
    runs = np.zeros((k + 1, 2 * k - 1))                      # prefix sums
    np.cumsum(diags.T, axis=0, out=runs[1:])
    # padded row a meets taps p = max(0, a-L+1) .. min(K-1, a)
    rows = np.arange(n)
    padded = (runs[np.minimum(rows, k - 1) + 1]
              - runs[np.maximum(rows - length + 1, 0)])      # (N, 2K-1)
    cols = rows[:, None] + offs
    inside = (cols >= 0) & (cols < n)
    u = np.broadcast_to(src[:, None], cols.shape)[inside]
    v = src[cols[inside]]
    return np.bincount(u * (2 * k - 1) + (v - u + k - 1),
                       weights=padded[inside],
                       minlength=length * (2 * k - 1)).reshape(length, -1)
