"""Optimization loop, composite reconstruction loss, threshold calibration.

Training sees only interference-free snapshots; the detector is the
reconstruction loss itself, thresholded one standard deviation above its
mean on the (equally clean) validation split.
"""

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import simulate as sim
from . import wavelet
from .errors import ConfigError, NumericalError

# snapshots per scoring batch: the training batch, and the batch the paper's
# per-batch inference latency refers to
SCORE_BATCH = 64


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

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "wavelet_scales": list(self.wavelet_scales),
            "seed": self.seed,
        }


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
    the fixed Morlet bank over ``scales``.
    """
    lambda2 = model_config.effective_lambda2(lambda2)
    return lambda2, wavelet.build_bank(scales) if lambda2 > 0 else None


class Adam:
    """Adaptive-moment optimizer (beta1=0.9, beta2=0.999, eps=1e-8).

    Updates every parameter array in place, through two scratch buffers per
    parameter allocated once, in the textbook order of operations.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.params]

    def step(self):
        """p -= lr * (m / b1t) / (sqrt(v / b2t) + eps), term by term."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v, (s, u) in zip(self.params, self._m, self._v,
                                   self._scratch):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=s)
            v *= self.beta2
            np.multiply(g, g, out=s)
            v += np.multiply(1.0 - self.beta2, s, out=s)
            np.divide(v, b2t, out=s)             # s = sqrt(v / b2t) + eps
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, b1t, out=u)             # u = lr * (m / b1t) / s
            np.multiply(self.lr, u, out=u)
            u /= s
            p.data -= u
            if not np.isfinite(p.data).all():
                raise NumericalError("non-finite parameter after update")

    def zero_grad(self):
        for p in self.params:
            p.grad = None


def composite_loss(xhat: ad.Tensor, target, bank, lambda1: float,
                   lambda2: float) -> ad.Tensor:
    """lambda1 * mse + lambda2 * multi-scale wavelet coefficient mse.

    The wavelet term treats the (B, 1600) reconstruction as one long
    (B, 1, 1600) signal spanning both domains. lambda2 = 0 skips the wavelet
    branch entirely, so the no-wavelet ablations never touch the bank.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise ConfigError("loss weights must be non-negative")
    target = ad.as_tensor(target)
    total = ad.scale(ad.mse(xhat, target), lambda1)
    if lambda2 > 0:
        if bank is None:
            raise ConfigError("wavelet term requested without a bank")
        b, n = xhat.data.shape
        sig_hat = ad.reshape(xhat, (b, 1, n))
        sig_ref = ad.reshape(target, (b, 1, n))
        total = ad.add(total,
                       ad.scale(wavelet.wavelet_loss(sig_hat, sig_ref, bank),
                                lambda2))
    return total


def _model_arrays(snapshots, norm_stats) -> tuple:
    """Normalized (N, L) amplitude and PSD rows and their (N, 2L) target."""
    amp, psd = sim.model_inputs(snapshots, norm_stats)
    amp, psd = amp[:, 0, :], psd[:, 0, :]
    return amp, psd, np.concatenate([amp, psd], axis=1)


def train(bundle: sim.DatasetBundle, model, cfg: TrainConfig):
    """Run the full loop; returns (per-epoch mean loss history, effective
    lambda2, bank or None).

    Deterministic: shuffles come from a SeedSequence([seed, 2]) stream and
    every arithmetic step is fixed-order.
    """
    if not bundle.train:
        raise ConfigError("training split is empty")
    if any(s.label != 0 for s in bundle.train):
        raise ConfigError("training split must contain only label-0 snapshots")

    lambda2, bank = wavelet_term(model.config, cfg.lambda2,
                                 cfg.wavelet_scales)
    amp, psd, target = _model_arrays(bundle.train, bundle.norm_stats)
    n = amp.shape[0]

    opt = Adam(model.params.tensors(), lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 2]))

    history = []
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            try:
                out = model.forward(amp[idx], psd[idx])
                loss = composite_loss(out, target[idx], bank,
                                      cfg.lambda1, lambda2)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            except NumericalError as exc:
                raise NumericalError(
                    f"aborted at epoch {epoch} step {start // cfg.batch_size}: "
                    f"{exc}") from exc
            epoch_loss += float(loss.data) * len(idx)
        history.append(epoch_loss / n)
    return history, lambda2, bank


def per_sample_losses(model, snapshots, norm_stats, bank, lambda1: float,
                      lambda2: float,
                      batch_size: int = SCORE_BATCH) -> np.ndarray:
    """Composite loss of each snapshot alone, vectorized over batches."""
    if lambda1 < 0 or lambda2 < 0:
        raise ConfigError("loss weights must be non-negative")
    amp, psd, target = _model_arrays(snapshots, norm_stats)
    out = np.empty(len(snapshots), dtype=np.float64)
    with ad.no_grad():
        for start in range(0, len(snapshots), batch_size):
            sl = slice(start, start + batch_size)
            recon = model.forward(amp[sl], psd[sl]).data
            diff = recon - target[sl]
            scores = lambda1 * np.mean(diff * diff, axis=1)
            if lambda2 > 0:
                if bank is None:
                    raise ConfigError("wavelet term requested without a bank")
                wave = wavelet.residual_energy(diff, bank)
                scores = scores + lambda2 * wave
            out[sl] = scores
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
    if not validation:
        raise ConfigError("validation split is empty")
    if any(s.label != 0 for s in validation):
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
