"""Reference ops and checks that the tests hold dawnet's product code to.

None of this runs in a command. The ops are tape nodes built with
``dawnet.autodiff``'s own helpers: ``relu`` and ``add_channel_bias`` are
the separate chain that a fused conv node must match bit for bit, ``dwt``
is the wavelet transform that defines the Gram-operator loss, and
``grad_check`` compares a tape's gradients with central differences.
``trapezoid_area`` is the float area under a ROC that ``evaluation.auc``
must equal.
"""

import numpy as np

from dawnet import backend
from dawnet.autodiff import (_accumulate, _dwt_pads, _make, _pad_last,
                             _unpad_fold, as_tensor, backward, no_grad)
from dawnet.errors import ConfigError, NumericalError, ShapeError


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bw(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(a.data * b.data, (a, b), bw)


def add_channel_bias(x, b):
    """Broadcast a per-channel bias over (B,C,L)."""
    x, b = as_tensor(x), as_tensor(b)
    if b.data.ndim != 1:
        raise ShapeError("bias must be 1-d")
    if x.data.ndim != 3:
        raise ShapeError("add_channel_bias expects a (B,C,L) input")
    if x.data.shape[1] != b.data.shape[0]:
        raise ShapeError("bias length must match channel count")

    def bw(g):
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=(0, 2)))

    return _make(x.data + b.data[None, :, None], (x, b), bw)


def relu(x):
    x = as_tensor(x)
    mask = x.data > 0.0

    def bw(g):
        _accumulate(x, g * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), bw)


def mse(a, b):
    """Mean of squared differences over all elements."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse shape mismatch: {a.data.shape} vs {b.data.shape}")
    diff = a.data - b.data
    n = diff.size

    def bw(g):
        common = (2.0 / n) * g * diff
        _accumulate(a, common)
        _accumulate(b, -common)

    return _make(np.mean(diff * diff), (a, b), bw)


def dwt(x, kernels):
    """Depthwise multi-scale correlation with reflection padding.

    (B,C,L) x (S,K) -> (B,C,S,L); each channel is filtered by every kernel
    row independently and the length is preserved. The kernels are looked
    up on ``backend`` at call time, so a test can count their calls.
    """
    x = as_tensor(x)
    kern = as_tensor(kernels)
    if x.data.ndim != 3:
        raise ShapeError("dwt expects a (B,C,L) tensor")
    if kern.data.ndim != 2:
        raise ShapeError("dwt kernels must be (S,K)")
    pl, pr = _dwt_pads(kern.data.shape[1])
    xp = np.ascontiguousarray(_pad_last(x.data, pl, pr))
    y = backend.dwt_fw(xp, np.ascontiguousarray(kern.data))

    def bw(g):
        g = np.ascontiguousarray(g)
        if x.requires_grad:
            gxp = backend.dwt_gx(g, kern.data, xp.shape[2])
            _accumulate(x, _unpad_fold(gxp, pl, pr))
        if kern.requires_grad:
            _accumulate(kern, backend.dwt_gk(g, xp))

    return _make(y, (x, kern), bw)


def grad_check(f, params, eps=1e-5, samples_per_param=None, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` is a zero-argument callable returning a scalar loss Tensor built
    from ``params``. With ``samples_per_param`` set, only a seeded random
    subset of each parameter's elements is probed (needed for model-sized
    checks; exhaustive otherwise).

    A central difference is meaningless when the stencil straddles a ReLU
    kink, which is common when a bias shifts every pre-activation in a
    channel at once. Mismatched samples are therefore cross-examined with
    two independent smoothness probes -- a second-difference spike at the
    base point and the disagreement between the eps and eps/2 stencils --
    and dropped when either probe accounts for the discrepancy. A wrong
    analytic gradient at a smooth point passes both probes (the numeric
    estimates agree with each other, not with the analytic value) and still
    fails the check.
    """
    eps = float(eps)
    if not (1e-6 <= eps <= 1e-3):
        raise ConfigError("eps must lie in [1e-6, 1e-3]")
    params = list(params)
    for p in params:
        # in place: a model's gradients are views of its gradient record
        if p.grad is not None:
            p.grad.fill(0)
    loss = f()
    backward(loss)
    f0 = float(loss.data)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if samples_per_param is not None and samples_per_param < n:
            idxs = rng.choice(n, size=samples_per_param, replace=False)
        else:
            idxs = range(n)
        def probe(j, h):
            orig = flat[j]
            flat[j] = orig + h
            with no_grad():
                fp = float(f().data)
            flat[j] = orig - h
            with no_grad():
                fm = float(f().data)
            flat[j] = orig
            return fp, fm

        for j in idxs:
            fp, fm = probe(j, eps)
            numeric = (fp - fm) / (2.0 * eps)
            a = ga.reshape(-1)[j]
            if not np.isfinite(numeric) or not np.isfinite(a):
                raise NumericalError("non-finite value in gradient check")
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            if rel > 1e-4:
                gap = abs(a - numeric)
                kink = abs(fp + fm - 2.0 * f0) / (2.0 * eps)
                fp2, fm2 = probe(j, 0.5 * eps)
                numeric2 = (fp2 - fm2) / eps
                stencil = abs(numeric - numeric2)
                if kink >= 0.5 * gap or stencil >= 0.25 * gap:
                    continue
            worst = max(worst, rel)
    return worst


def trapezoid_area(roc_points) -> float:
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(roc_points, roc_points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area
