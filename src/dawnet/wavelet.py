"""Real Morlet filter bank and the multi-scale decomposition loss.

The decomposition W (reflect padding, then one correlation per scale) is
linear, so the loss on a residual d = xhat - x is the quadratic form
d^T G d with G = W^T W (:func:`autodiff.dwt_gram`). G is banded with
half-width K-1, so it is block tridiagonal in K x K blocks: the bank keeps
it as ceil(L/K) column panels of 3K x K and applies it with one batched
matmul. :func:`dwt` remains the defining transform.
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
    """Stacked (S,K) Morlet kernels."""

    def __init__(self, scales, kernels: ad.Tensor):
        self.scales = tuple(float(s) for s in scales)
        self.kernels = kernels
        self._gram = (None, None)   # (key, column panels) of the last G

    @property
    def kernel_len(self) -> int:
        return self.kernels.data.shape[1]

    def gram(self, d: np.ndarray) -> np.ndarray:
        """G d over the last axis of ``d``, G = W^T W at that length.

        G is built on first use and cached under (length, kernel bytes), so
        any change to the kernels, in place or by assignment, rebuilds it.
        """
        kern = self.kernels.data
        length = d.shape[-1]
        key = (length, kern.shape, kern.tobytes())
        if self._gram[0] != key:
            self._gram = (key, _gram_panels(kern, length))
        rows = d.reshape(-1, length)
        return _apply_panels(self._gram[1], rows).reshape(d.shape)


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


def build_bank(scales, learnable: bool = False) -> WaveletBank:
    """Bank over the given scales (:func:`kernel_len` taps).

    ``learnable`` makes the kernels take a gradient, so that gradient can be
    checked; nothing trains them.
    """
    taps = kernel_len(scales)
    rows = np.stack([morlet_kernel(s, taps) for s in scales])
    return WaveletBank(scales, ad.Tensor(rows, requires_grad=learnable))


def dwt(x: ad.Tensor, bank: WaveletBank) -> ad.Tensor:
    """Length-preserving (B,C,L) -> (B,C,S,L) decomposition."""
    return ad.dwt(x, bank.kernels)


def residual_energy(d: np.ndarray, bank: WaveletBank) -> np.ndarray:
    """S * mean((W d)^2) over scales and samples of each row of ``d``.

    For (..., L) residual rows this is d.G d / L, shape (...).
    """
    return np.sum(d * bank.gram(d), axis=-1) / d.shape[-1]


def wavelet_loss(xhat: ad.Tensor, x: ad.Tensor, bank: WaveletBank) -> ad.Tensor:
    """Sum over scales of per-scale mean squared coefficient error.

    All scale slices share the same element count, so the sum equals
    S * mse over the full (B,C,S,L) stack of dwt(xhat) - dwt(x), which is
    d^T G d / (B*C*L) for the residual d = xhat - x.
    """
    return ad.dwt_energy(xhat, x, bank.kernels, bank.gram)
