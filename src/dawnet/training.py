"""Optimization loop, composite reconstruction loss, threshold calibration.

Training sees only interference-free snapshots; the detector is the
reconstruction loss itself, thresholded one standard deviation above its
mean on the (equally clean) validation split.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import simulate as sim
from . import wavelet
from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    lambda1: float = 1.0
    lambda2: float = 0.1
    wavelet_scales: tuple = (4, 8, 16)
    seed: int = 0
    learnable_bank: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
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
            "learnable_bank": self.learnable_bank,
        }


@dataclass(frozen=True)
class Threshold:
    value: float
    mu: float
    sigma: float


class Adam:
    """Adaptive-moment optimizer (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
            p.data = p.data - update
            if not np.all(np.isfinite(p.data)):
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


def _training_arrays(bundle: sim.DatasetBundle, split) -> tuple:
    amp, psd = sim.model_inputs(split, bundle.norm_stats)
    amp = amp[:, 0, :]
    psd = psd[:, 0, :]
    target = np.concatenate([amp, psd], axis=1)
    return amp, psd, target


def train(bundle: sim.DatasetBundle, model, cfg: TrainConfig):
    """Run the full loop; returns (params, per-epoch mean loss history, bank).

    Deterministic: shuffles come from a SeedSequence([seed, 2]) stream and
    every arithmetic step is fixed-order. The bank is renormalized after
    each optimizer step when learnable.
    """
    if not bundle.train:
        raise ConfigError("training split is empty")
    if any(s.label != 0 for s in bundle.train):
        raise ConfigError("training split must contain only label-0 snapshots")

    eff_lambda2 = cfg.lambda2 if model.config.uses_wavelet_loss else 0.0
    bank = None
    if eff_lambda2 > 0:
        bank = wavelet.build_bank(cfg.wavelet_scales,
                                  learnable=cfg.learnable_bank)
    amp, psd, target = _training_arrays(bundle, bundle.train)
    n = amp.shape[0]

    opt_params = model.params.tensors()
    if bank is not None and bank.learnable:
        opt_params = opt_params + [bank.kernels]
    opt = Adam(opt_params, lr=cfg.learning_rate)
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
                                      cfg.lambda1, eff_lambda2)
                opt.zero_grad()
                ad.backward(loss)
                opt.step()
            except NumericalError as exc:
                raise NumericalError(
                    f"aborted at epoch {epoch} step {start // cfg.batch_size}: "
                    f"{exc}") from exc
            if bank is not None and bank.learnable:
                bank.renormalize()
            epoch_loss += float(loss.data) * len(idx)
        history.append(epoch_loss / n)
    return model.params, history, bank


def per_sample_losses(model, snapshots, norm_stats, bank, lambda1: float,
                      lambda2: float, batch_size: int = 256) -> np.ndarray:
    """Composite loss of each snapshot alone, vectorized over batches."""
    if lambda1 < 0 or lambda2 < 0:
        raise ConfigError("loss weights must be non-negative")
    amp, psd = sim.model_inputs(snapshots, norm_stats)
    amp, psd = amp[:, 0, :], psd[:, 0, :]
    target = np.concatenate([amp, psd], axis=1)
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
                b, n = recon.shape
                d_hat = ad.dwt(ad.Tensor(recon.reshape(b, 1, n)),
                               bank.kernels).data
                d_ref = ad.dwt(ad.Tensor(target[sl].reshape(b, 1, n)),
                               bank.kernels).data
                wdiff = d_hat - d_ref
                # sum over scales of per-scale means = S * flat mean
                wave = bank.num_scales * np.mean(
                    wdiff * wdiff, axis=(1, 2, 3))
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
    """Convenience wrapper returning everything the CLI persists."""
    t0 = time.perf_counter()
    _, history, bank = train(bundle, model, cfg)
    train_s = time.perf_counter() - t0
    eff_lambda2 = cfg.lambda2 if model.config.uses_wavelet_loss else 0.0
    threshold = calibrate_threshold(model, bundle.validation,
                                    bundle.norm_stats, bank,
                                    cfg.lambda1, eff_lambda2)
    return {
        "history": history,
        "bank": bank,
        "threshold": threshold,
        "train_seconds": train_s,
    }
