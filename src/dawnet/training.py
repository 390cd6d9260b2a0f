"""Optimization loop, composite reconstruction loss, scoring, calibration.

Training sees only interference-free snapshots; the detector is the
reconstruction loss itself, thresholded one standard deviation above its
mean on the (equally clean) validation split.
"""

import contextvars
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ONE_BLAS_THREAD
from . import autodiff as ad
from . import simulate as sim
from . import wavelet
from .errors import ConfigError, NumericalError, ShapeError
from .model import INPUT_LEN

# snapshots per scoring batch: the training batch, and the batch the paper's
# per-batch inference latency refers to
SCORE_BATCH = 64
# samples of the stacked (amplitude, PSD) signal the wavelet term filters
SIGNAL_LEN = 2 * INPUT_LEN
# elements of the flat parameters that Adam updates at a time: its two
# scratch rows of 256 KiB each stay in a 1 MiB L2 cache
ADAM_CHUNK = 32_768


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    lambda1: float = 1.0
    lambda2: float = 0.1
    wavelet_scales: tuple = (4, 8, 16)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ConfigError("learning_rate must be finite and >= 0")
        if not (math.isfinite(self.lambda1) and math.isfinite(self.lambda2)):
            raise ConfigError("loss weights must be finite")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class Threshold:
    value: float
    mu: float
    sigma: float


class Detector(NamedTuple):
    """A reconstruction model with everything it is scored by.

    ``lambda2`` is the wavelet weight the model's variant actually uses, and
    ``bank`` is None exactly when it is 0 (:func:`wavelet_term`).
    """
    model: object
    threshold: Threshold
    lambda1: float
    lambda2: float
    bank: object


def wavelet_term(model_config, lambda2: float, scales) -> tuple:
    """(effective lambda2, bank or None) a variant trains and scores with.

    Ablations without the wavelet loss get weight 0 and no bank; the bank is
    the fixed Morlet bank over ``scales``, refused before it is built when
    its taps cannot be reflect-padded onto the stacked model output.
    """
    lambda2 = float(lambda2) if model_config.uses_wavelet_loss else 0.0
    if not lambda2 > 0:
        return lambda2, None
    taps = wavelet.kernel_len(scales)
    if taps // 2 >= SIGNAL_LEN:
        raise ConfigError(f"wavelet scales {list(scales)} need {taps} taps; "
                          f"a {SIGNAL_LEN}-sample signal allows at most "
                          f"{2 * SIGNAL_LEN - 1}")
    return lambda2, wavelet.build_bank(scales)


class Adam:
    """Adaptive-moment optimizer (beta1=0.9, beta2=0.999, eps=1e-8).

    ``values`` and ``grads`` are C-contiguous float64 buffers of one size,
    such as a model's two ``PARAMETERS`` records. The textbook update runs
    in place over ``ADAM_CHUNK``-element pieces, through one scratch pair
    that stays in cache while a piece goes through all of its passes. Each
    element sees a whole-buffer update's operations in the same order, so
    the result is bitwise the same; elements with zero gradient stay put.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, values, grads, lr=1e-3):
        # views, never copies: a buffer that is not C-contiguous is refused
        self.values, self.grads = (np.frombuffer(a, np.float64)
                                   for a in (values, grads))
        self.lr, self.t = float(lr), 0
        # two arrays: a freed 2n block lifts glibc's mmap threshold too far
        self._m, self._v = (np.zeros_like(self.values) for _ in range(2))
        self._scratch = (np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK))

    def step(self):
        """p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), term by term.

        An overflow raises ``NumericalError``: a gradient element above
        about 1e154 would otherwise make its v infinite and so freeze that
        element for good, silently.
        """
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        try:
            with np.errstate(over="raise"):
                self._update(b1t, b2t)
        except FloatingPointError as exc:
            raise NumericalError(f"Adam update: {exc}") from exc
        if not np.isfinite(self.values).all():
            raise NumericalError("non-finite parameter after update")

    def _update(self, b1t, b2t):
        flat = (self.values, self.grads, self._m, self._v)
        for lo in range(0, self.values.size, ADAM_CHUNK):
            pc, g, mc, vc = (a[lo:lo + ADAM_CHUNK] for a in flat)
            s, u = (a[:pc.size] for a in self._scratch)
            mc *= self.beta1
            mc += np.multiply(1.0 - self.beta1, g, out=s)
            vc *= self.beta2
            np.multiply(g, g, out=s)
            vc += np.multiply(1.0 - self.beta2, s, out=s)
            np.divide(vc, b2t, out=s)        # s = sqrt(v / b2t) + eps
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(mc, b1t, out=u)        # u = lr * (m / b1t) / s
            np.multiply(self.lr, u, out=u)
            u /= s
            pc -= u


def sample_losses(d: np.ndarray, bank, lambda1: float, lambda2: float):
    """(per-row loss, G d or None) of (B, N) residual rows d = xhat - x.

    The reconstruction loss of one sample is lambda1 * mean(d^2) + lambda2 *
    d.G d / N, its wavelet term treating the row as one long signal spanning
    both domains (:func:`wavelet.wavelet_loss`). lambda2 = 0 skips the
    wavelet term entirely, so the no-wavelet ablations never touch the bank.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ConfigError("loss weights must be non-negative")
    rows = lambda1 * np.mean(d * d, axis=1)
    if not lambda2 > 0:
        return rows, None
    if bank is None:
        raise ConfigError("wavelet term requested without a bank")
    wave, gd = wavelet.wavelet_loss(d, bank)
    return rows + lambda2 * wave, gd


def composite_loss(xhat: ad.Tensor, target, bank, lambda1: float,
                   lambda2: float) -> ad.Tensor:
    """Batch mean of :func:`sample_losses`, as one tape node.

    Its gradient in xhat is 2 (lambda1 d + lambda2 G d) / (B N), each term
    rounded as a separate mse or wavelet node would round it.
    """
    target = ad.as_tensor(target).data
    if xhat.data.ndim != 2 or xhat.data.shape != target.shape:
        raise ShapeError(f"composite_loss expects two equal (B, N) shapes, "
                         f"got {xhat.data.shape} and {target.shape}")
    d = xhat.data - target
    rows, gd = sample_losses(d, bank, lambda1, lambda2)
    n = d.size
    dx = ((2.0 / n) * lambda1) * d
    if gd is not None:
        dx += (2.0 * (1.0 / n) * lambda2) * gd
    return ad.scalar(xhat, np.mean(rows), dx)


def train(bundle: sim.DatasetBundle, model, cfg: TrainConfig):
    """Run the full loop; returns (per-epoch mean loss history, effective
    lambda2, bank or None).

    Deterministic: shuffles come from a SeedSequence([seed, 2]) stream and
    every arithmetic step is fixed-order. A step is the batch's
    ``_shards(x, 2)``, run by :func:`_side_by_side`; the second runs on a
    twin model over the same values. Each shard zeroes its own gradient
    record, runs its forward, loss and backward, and weights the record by
    its share of the rows. This thread then adds the twin's record into
    the model's and takes one Adam step, so the bytes do not depend on the
    worker count. A batch of at most three rows is one shard.
    """
    if len(bundle.train) == 0:
        raise ConfigError("training split is empty")
    if np.any(bundle.train.label != 0):
        raise ConfigError("training split must contain only label-0 snapshots")

    lambda2, bank = wavelet_term(model.config, cfg.lambda2,
                                 cfg.wavelet_scales)
    n = len(bundle.train)

    opt = Adam(model.values, model.grads, lr=cfg.learning_rate)
    # the second shard's model: the same values, its own tape and gradients
    nets = (model, type(model)(model.config, parameters=model.values))
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 2]))

    def shard(net, part, rows):
        """Shard loss times its rows; ``net.grads`` ends as its gradient
        times its share of the ``rows``."""
        grads = np.frombuffer(net.grads, np.float64)
        grads.fill(0)
        loss = composite_loss(net.forward(part), part, bank, cfg.lambda1,
                              lambda2)
        ad.backward(loss)
        grads *= len(part) / rows
        return float(loss.data) * len(part)

    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            # normalized per batch: the split's rows are the only copy
            x = sim.model_inputs(bundle.train[idx], bundle.norm_stats)
            parts = _shards(x, 2)
            try:
                epoch_loss += sum(_side_by_side(
                    [functools.partial(shard, net, part, len(x))
                     for net, part in zip(nets, parts)]))
                if len(parts) == 2:
                    opt.grads += np.frombuffer(nets[1].grads, np.float64)
                opt.step()
            except NumericalError as exc:
                raise NumericalError(
                    f"aborted at epoch {epoch} step "
                    f"{start // cfg.batch_size}: {exc}") from exc
        history.append(epoch_loss / n)
    return history, lambda2, bank


def _workers() -> int:
    """How many threads :func:`_side_by_side` may run its calls on: one per
    CPU this process may run on when numpy computes on one BLAS thread,
    else 1, because a BLAS that already uses every core only loses from
    more threads."""
    if not ONE_BLAS_THREAD:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shards(x, k: int) -> list:
    """``x`` cut into ``max(1, min(k, len(x) // 2))`` contiguous parts, in
    order and as even as integer division makes them, so no part has one
    row unless ``x`` has: a training batch in two, and a scoring block of
    at most ``k`` batches in parts of at most ``SCORE_BATCH`` rows. On
    OpenBLAS 0.3.31 a row's loss has the same bits in any batch of two rows
    or more (shards of 2 to 32 rows of a 64-row batch, and batches of 2 to
    64 rows against their halves, at four model seeds); a one-row batch
    takes another BLAS path, which changed 17 to 23 of 128 rows, by up to
    4.3e-14.
    """
    n = len(x)
    k = max(1, min(k, n // 2))
    return [x[i * n // k:(i + 1) * n // k] for i in range(k)]


def _side_by_side(calls) -> list:
    """``[call() for call in calls]``, the calls side by side.

    This thread runs the first call. When ``_workers()`` is above 1, the
    others run on a pool of ``len(calls) - 1`` threads, each in a copy of
    this thread's context (numpy's error state, ``no_grad``); numpy
    releases the GIL in its kernels, so they compute together. Else this
    thread runs each in turn. The first exception in call order is raised
    here, with its type and message, after every thread has ended.
    """
    if len(calls) < 2 or _workers() < 2:
        return [call() for call in calls]
    with ThreadPoolExecutor(len(calls) - 1) as pool:
        # one context per call: a context is entered by one thread only
        futures = [pool.submit(contextvars.copy_context().run, call)
                   for call in calls[1:]]
        return [calls[0]()] + [future.result() for future in futures]


def per_sample_losses(model, snapshots, norm_stats, bank, lambda1: float,
                      lambda2: float, batch_times=None) -> np.ndarray:
    """Composite loss of each snapshot of a split alone.

    The split goes in blocks of ``_workers()`` ``SCORE_BATCH``-row batches,
    each normalized once and scored as ``_shards(x, _workers())`` by
    :func:`_side_by_side`; ``batch_times``, if given, receives each batch's
    block's seconds, in batch order. A one-row last batch is a block of its
    own, as at one worker, so the bits do not depend on the worker count.
    """
    n = len(snapshots)
    out = np.empty(n, dtype=np.float64)
    workers = _workers()
    tail = n % SCORE_BATCH == 1
    starts = [*range(0, n - tail, workers * SCORE_BATCH)] + [n - 1] * tail

    def score(x):
        return sample_losses(model.forward(x).data - x, bank, lambda1,
                             lambda2)[0]

    with ad.no_grad():
        for lo, hi in zip(starts, starts[1:] + [n]):
            t0 = time.perf_counter()
            x = sim.model_inputs(snapshots[lo:hi], norm_stats)
            out[lo:hi] = np.concatenate(_side_by_side(
                [functools.partial(score, part)
                 for part in _shards(x, workers)]))
            if batch_times is not None:
                batch_times[lo // SCORE_BATCH:-(-hi // SCORE_BATCH)] = (
                    time.perf_counter() - t0)
    return out


def threshold_from_losses(losses) -> Threshold:
    """mu + one population standard deviation."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ConfigError("cannot calibrate a threshold from no losses")
    mu = float(np.mean(losses))
    sigma = float(np.std(losses))
    return Threshold(value=mu + sigma, mu=mu, sigma=sigma)


def calibrate_threshold(model, validation, norm_stats, bank, lambda1: float,
                        lambda2: float) -> Threshold:
    """Threshold one population std above the mean validation loss."""
    if len(validation) == 0:
        raise ConfigError("validation split is empty")
    if np.any(validation.label != 0):
        raise ConfigError("validation split must contain only label-0 "
                          "snapshots")
    losses = per_sample_losses(model, validation, norm_stats, bank,
                               lambda1, lambda2)
    return threshold_from_losses(losses)


def train_and_calibrate(bundle: sim.DatasetBundle, model, cfg: TrainConfig):
    """Train, calibrate, and return the ``"detector"`` with the ``"model"``,
    the loss ``"history"`` and the ``"train_seconds"``."""
    t0 = time.perf_counter()
    history, lambda2, bank = train(bundle, model, cfg)
    train_s = time.perf_counter() - t0
    threshold = calibrate_threshold(model, bundle.validation,
                                    bundle.norm_stats, bank, cfg.lambda1,
                                    lambda2)
    return {
        "detector": Detector(model, threshold, cfg.lambda1, lambda2, bank),
        "model": model,
        "history": history,
        "train_seconds": train_s,
    }
