"""Real Morlet filter bank and the multi-scale decomposition loss.

The decomposition W (reflect padding, then one correlation per scale) is
linear, so the loss on a residual d = xhat - x is the quadratic form
d^T G d with G = W^T W (:func:`autodiff.dwt_gram`). G is banded with
half-width K-1, so it is block tridiagonal in K x K blocks: the bank keeps
it as ceil(L/K) column panels of 3K x K and applies it with one batched
matmul. The transform itself, ``dwt``, is a test oracle in
``tests/oracles.py``.
"""

import math

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


def morlet_kernel(scale: float, kernel_len: int) -> np.ndarray:
    """Unit-norm real Morlet taps cos(t/s)*exp(-t^2/2s^2) on an integer grid.

    The grid runs -floor(K/2) .. ceil(K/2)-1 so the K=2m case keeps t=0 at
    index m.
    """
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if kernel_len < 1:
        raise ConfigError("kernel_len must be >= 1")
    half = kernel_len // 2
    tau = np.arange(-half, kernel_len - half, dtype=np.float64)
    k = np.cos(tau / scale) * np.exp(-(tau * tau) / (2.0 * scale * scale))
    return ad.l2_normalize(k)


class WaveletBank:
    """Stacked (S,K) Morlet kernels, read-only, and their Gram operator."""

    def __init__(self, scales, kernels: np.ndarray):
        self.scales = tuple(float(s) for s in scales)
        self.kernels = np.array(kernels, dtype=np.float64)
        self.kernels.flags.writeable = False
        self._gram = {}             # signal length -> column panels of G

    def gram(self, d: np.ndarray) -> np.ndarray:
        """G d over the last axis of ``d``, G = W^T W at that length.

        G is built on first use at each length and kept.
        """
        length = d.shape[-1]
        if length not in self._gram:
            self._gram[length] = _gram_panels(self.kernels, length)
        rows = d.reshape(-1, length)
        return _apply_panels(self._gram[length], rows).reshape(d.shape)


def _gram_panels(kern: np.ndarray, length: int) -> np.ndarray:
    """Column panels (nb, 3K, K) of G at ``length``.

    Panel i holds block rows i-1..i+1 of block column i, with zeros past
    either end. G is symmetric, so panel[i, r, c] = G[iK+c, (i-1)K+r] is
    entry r-c-1 of band row iK+c (:func:`autodiff.dwt_gram`); entries off
    the band read a zero column.
    """
    k = kern.shape[1]
    nb = -(-length // k)
    band = np.zeros((nb * k, 2 * k))
    band[:length, :2 * k - 1] = ad.dwt_gram(kern, length)
    c = np.arange(k)
    j = np.arange(3 * k)[:, None] - c - 1                    # (3K, K)
    j[(j < 0) | (j > 2 * k - 2)] = 2 * k - 1
    # np.take lays the panels out C-contiguous, as the batched matmul wants
    return np.take(band.reshape(nb, 2 * k * k), c * 2 * k + j, axis=1)


def _apply_panels(panels: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(rows, L) -> (rows, L): G d as one matmul batched over block columns.

    G is symmetric, so output block i is d's three-block window around
    block i times panel i.
    """
    nb, _, k = panels.shape
    rows, length = d.shape
    framed = np.zeros((rows, (nb + 2) * k))
    framed[:, k:k + length] = d
    windows = np.lib.stride_tricks.sliding_window_view(
        framed, 3 * k, axis=1)[:, ::k]                       # (rows, nb, 3K)
    out = np.matmul(windows.transpose(1, 0, 2), panels)      # (nb, rows, K)
    return out.transpose(1, 0, 2).reshape(rows, nb * k)[:, :length]


def kernel_len(scales) -> int:
    """Tap count of the bank over ``scales``: 4x the largest scale, rounded.

    Rejects an empty or duplicated scale list, and scales whose 4x is not a
    finite float (non-finite scales, or too large for a float tap count).
    """
    scales = list(scales)
    if not scales:
        raise ConfigError("at least one scale is required")
    if len(set(scales)) != len(scales):
        raise ConfigError(f"duplicate scales: {scales}")
    try:
        taps = [4.0 * s for s in scales]
    except OverflowError:                    # an int beyond the float range
        taps = [math.inf]
    if not all(map(math.isfinite, taps)):
        raise ConfigError(f"scales must be finite, 4x each within float range: "
                          f"{scales}")
    return int(round(max(taps)))


def build_bank(scales) -> WaveletBank:
    """The fixed bank over the given scales (:func:`kernel_len` taps)."""
    taps = kernel_len(scales)
    return WaveletBank(scales,
                       np.stack([morlet_kernel(s, taps) for s in scales]))


def wavelet_loss(d: np.ndarray, bank: WaveletBank) -> tuple:
    """(energy, G d) of (..., L) residual rows d = xhat - x.

    A row's energy, shape (...), is the sum over scales of the per-scale
    mean squared coefficient of dwt(xhat) - dwt(x): S * mean((W d)^2) =
    d.G d / L. Its gradient in d is 2 G d / L, so G d comes back too.
    """
    gd = bank.gram(d)
    return np.sum(d * gd, axis=-1) / d.shape[-1], gd
