"""Dual-branch convolutional autoencoder with bidirectional mutual attention.

Two width-800 channels (waveform amplitude, log-PSD) are encoded separately
to (C, L) latents with C*L = 64, cross-refined through a shared single-head
attention block, concatenated to a 128-d code, and decoded back to the
stacked 1600-d signal. Ablation flags drop the attention stage and/or the
wavelet term of the loss without touching parameter layout, so every
variant shares checkpoints and initialization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

ABLATIONS = ("full", "no_mutual_attention", "no_wavelet_loss", "vanilla")
# variants whose forward pass bypasses the attention stage
_NO_ATTENTION = ("no_mutual_attention", "vanilla")


@dataclass(frozen=True)
class ModelConfig:
    input_len: int = 800
    latent_channels: int = 16
    latent_len: int = 4
    fused_dim: int = 128
    reduction_factor: int = 8
    ablation: str = "full"

    def __post_init__(self):
        c, l = self.latent_channels, self.latent_len
        if self.input_len < 32:
            raise ConfigError("input_len too small for the conv stack")
        if c * l != 64:
            raise ConfigError(f"latent must hold 64 values, got {c}x{l}")
        if self.reduction_factor < 1 or c % self.reduction_factor != 0:
            raise ConfigError(
                f"latent_channels {c} not divisible by reduction "
                f"factor {self.reduction_factor}")
        if self.fused_dim != 2 * c * l:
            raise ConfigError(f"fused_dim must be {2 * c * l}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; "
                              f"expected one of {ABLATIONS}")

    @property
    def uses_attention(self) -> bool:
        return self.ablation not in _NO_ATTENTION

    @property
    def uses_wavelet_loss(self) -> bool:
        return self.ablation not in ("no_wavelet_loss", "vanilla")

    def effective_lambda2(self, lambda2: float) -> float:
        """Wavelet-term weight this variant trains and scores with."""
        return float(lambda2) if self.uses_wavelet_loss else 0.0

    def to_dict(self) -> dict:
        return {
            "input_len": self.input_len,
            "latent_channels": self.latent_channels,
            "latent_len": self.latent_len,
            "fused_dim": self.fused_dim,
            "reduction_factor": self.reduction_factor,
            "ablation": self.ablation,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class AttentionParams:
    """Shared projection kernels for both attention directions."""

    w_q: ad.Tensor   # (C/r, C, 1)
    w_k: ad.Tensor   # (C/r, C, 1)
    w_v: ad.Tensor   # (C, C, 1)
    gamma: ad.Tensor  # scalar gate, starts at exactly 0


def attention_param_count(config: ModelConfig) -> int:
    c, r = config.latent_channels, config.reduction_factor
    return 2 * (c * c // r) + c * c + 1


def mutual_attention(x: ad.Tensor, y: ad.Tensor, p: AttentionParams) -> ad.Tensor:
    """x + gamma * attention-gated readout of y.

    Queries come from x, keys/values from y; the affinity matrix is L x L
    with rows (query positions) softmax-normalized, scaled by 1/sqrt(C/r).
    """
    if x.data.shape != y.data.shape:
        raise ShapeError(f"attention inputs differ: {x.data.shape} vs "
                         f"{y.data.shape}")
    d = p.w_q.data.shape[0]
    q = ad.swap_cl(ad.conv1d(x, p.w_q))            # (B, L, C/r)
    k = ad.conv1d(y, p.w_k)                        # (B, C/r, L)
    aff = ad.softmax_rows(ad.scale(ad.matmul(q, k), 1.0 / math.sqrt(d)))
    v = ad.conv1d(y, p.w_v)                        # (B, C, L)
    gated = ad.mul_scalar(ad.matmul(v, ad.swap_cl(aff)), p.gamma)
    return ad.add(x, gated)


def fuse_bidirectional(x: ad.Tensor, y: ad.Tensor, p: AttentionParams):
    """Sequential symmetric refinement: the second pass sees the refined x."""
    x_ref = mutual_attention(x, y, p)
    y_ref = mutual_attention(y, x_ref, p)
    return x_ref, y_ref


def _encoder_plan(config: ModelConfig):
    """(cin, cout, kernel, stride, pad, relu) rows for one encoder branch."""
    c, l = config.latent_channels, config.latent_len
    length = config.input_len
    rows = []
    for cin, cout in ((1, 8), (8, 16), (16, 16), (16, 16)):
        rows.append((cin, cout, 7, 2, 3, True))
        length = (length + 6 - 7) // 2 + 1
    # stride-adjusting layer: full-coverage kernel, no padding, linear
    stride = max(1, length // l)
    kernel = length - (l - 1) * stride
    if kernel < 1:
        raise ConfigError(f"cannot reach latent length {l} from {length}")
    rows.append((16, c, kernel, stride, 0, False))
    return rows


def _decoder_plan(config: ModelConfig):
    c, l = config.latent_channels, config.latent_len
    tconvs = [(2 * c, 16, 4, 4), (16, 8, 5, 3)]   # (cin, cout, kernel, stride)
    length = l
    for _, _, k, s in tconvs:
        length = (length - 1) * s + k
    return tconvs, 8 * length


class DualDomainAutoencoder:
    """Encoders, shared attention, decoder; parameters in a fixed registry.

    Every ablation registers the identical parameter set in the identical
    order, so checkpoints are interchangeable and seed-matched variants
    start from bitwise-equal weights.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params = ad.ParamRegistry()
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))

        def uniform(shape, fan_in):
            bound = 1.0 / math.sqrt(fan_in)
            return ad.Tensor(rng.uniform(-bound, bound, size=shape))

        self._enc = {}
        for branch in ("time_encoder", "freq_encoder"):
            layers = []
            for i, (cin, cout, k, s, pad, act) in enumerate(_encoder_plan(config)):
                w = self.params.register(f"{branch}.conv{i}.weight",
                                         uniform((cout, cin, k), cin * k))
                b = self.params.register(f"{branch}.conv{i}.bias",
                                         ad.Tensor(np.zeros(cout)))
                layers.append((w, b, s, pad, act))
            self._enc[branch] = layers

        c, r = config.latent_channels, config.reduction_factor
        self.attention = AttentionParams(
            w_q=self.params.register("attention.w_q",
                                     uniform((c // r, c, 1), c)),
            w_k=self.params.register("attention.w_k",
                                     uniform((c // r, c, 1), c)),
            w_v=self.params.register("attention.w_v",
                                     uniform((c, c, 1), c)),
            gamma=self.params.register("attention.gamma",
                                       ad.Tensor(np.array(0.0))),
        )

        tconvs, dense_in = _decoder_plan(config)
        self._dec = []
        for i, (cin, cout, k, s) in enumerate(tconvs):
            w = self.params.register(f"decoder.tconv{i}.weight",
                                     uniform((cin, cout, k), cin * k))
            b = self.params.register(f"decoder.tconv{i}.bias",
                                     ad.Tensor(np.zeros(cout)))
            self._dec.append((w, b, s))
        self._dense_in = dense_in
        self.dense_w = self.params.register(
            "decoder.out.weight", uniform((dense_in, 2 * config.input_len),
                                          dense_in))
        self.dense_b = self.params.register(
            "decoder.out.bias", ad.Tensor(np.zeros(2 * config.input_len)))

    # -- stages ------------------------------------------------------------

    def encode(self, x, which: str) -> ad.Tensor:
        if which not in ("time", "freq"):
            raise ConfigError(f"unknown encoder branch {which!r}")
        x = ad.as_tensor(x)
        expected = (x.data.shape[0], 1, self.config.input_len)
        if x.data.ndim != 3 or x.data.shape != expected:
            raise ShapeError(f"encoder expects (B,1,{self.config.input_len}), "
                             f"got {x.data.shape}")
        h = x
        for w, b, stride, pad, act in self._enc[f"{which}_encoder"]:
            h = ad.conv1d(h, w, b=b, stride=stride, padding=pad,
                          pad_mode="reflect" if pad else "zero", relu=act)
        return h

    def fuse(self, tx: ad.Tensor, fx: ad.Tensor):
        if self.config.uses_attention:
            return fuse_bidirectional(tx, fx, self.attention)
        return tx, fx

    def decode(self, fused: ad.Tensor) -> ad.Tensor:
        fused = ad.as_tensor(fused)
        if fused.data.ndim != 2 or fused.data.shape[1] != self.config.fused_dim:
            raise ShapeError(f"decoder expects (B,{self.config.fused_dim}), "
                             f"got {fused.data.shape}")
        b = fused.data.shape[0]
        h = ad.reshape(fused, (b, 2 * self.config.latent_channels,
                               self.config.latent_len))
        for w, bias, stride in self._dec:
            h = ad.conv1d_transpose(h, w, b=bias, stride=stride, relu=True)
        h = ad.reshape(h, (b, self._dense_in))
        return ad.add_bias(ad.matmul(h, self.dense_w), self.dense_b)

    def forward(self, time_in, freq_in) -> ad.Tensor:
        time_in, freq_in = ad.as_tensor(time_in), ad.as_tensor(freq_in)
        n = self.config.input_len
        if time_in.data.ndim != 2 or time_in.data.shape[1] != n:
            raise ShapeError(f"expected (B,{n}) time input, got "
                             f"{time_in.data.shape}")
        if freq_in.data.shape != time_in.data.shape:
            raise ShapeError("time and frequency batches must match")
        b = time_in.data.shape[0]
        tx = self.encode(ad.reshape(time_in, (b, 1, n)), "time")
        fx = self.encode(ad.reshape(freq_in, (b, 1, n)), "freq")
        tx, fx = self.fuse(tx, fx)
        cl = self.config.latent_channels * self.config.latent_len
        fused = ad.concat([ad.reshape(tx, (b, cl)), ad.reshape(fx, (b, cl))],
                          axis=1)
        return self.decode(fused)

    # -- persistence ---------------------------------------------------------

    def named_parameters(self):
        return [(name, t.data) for name, t in self.params.items()]

    def load_named_parameters(self, named):
        named = list(named)
        expected = self.params.names()
        got = [n for n, _ in named]
        if got != expected:
            raise ConfigError(
                f"parameter list mismatch: unexpected "
                f"{sorted(set(got) - set(expected))}, missing "
                f"{sorted(set(expected) - set(got))}")
        for name, values in named:
            tensor = self.params[name]
            values = np.asarray(values, dtype=np.float64)
            if values.shape != tensor.data.shape:
                raise ConfigError(f"shape mismatch for {name}: checkpoint "
                                  f"{values.shape} vs model {tensor.data.shape}")
            tensor.data = values.copy()
