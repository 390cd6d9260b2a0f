"""Dual-branch convolutional autoencoder with bidirectional mutual attention.

Two width-800 channels (waveform amplitude, log-PSD) are encoded separately
to 16x4 latents, cross-refined through a shared single-head attention block
at channel reduction 8, concatenated to a 128-d code, and decoded back to
the stacked 1600-d signal. The layer sizes are the module constants below;
the only choice a model makes is its ablation variant. Ablation flags drop
the attention stage and/or the wavelet term of the loss without touching
parameter layout, so every variant shares checkpoints and initialization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .simulate import SNAPSHOT_LEN

INPUT_LEN = SNAPSHOT_LEN                 # samples per branch input
LATENT_CHANNELS, LATENT_LEN = 16, 4      # each branch's latent
REDUCTION = 8                            # attention query/key reduction
FUSED_DIM = 2 * LATENT_CHANNELS * LATENT_LEN

# (cin, cout, kernel, stride, pad, relu) per encoder layer: four reflect-
# padded stride-2 convs 800 -> 50, then a linear stride-adjusting conv with
# a full-coverage kernel, 50 -> 4
ENCODER = (
    (1, 8, 7, 2, 3, True),
    (8, 16, 7, 2, 3, True),
    (16, 16, 7, 2, 3, True),
    (16, 16, 7, 2, 3, True),
    (16, 16, 14, 12, 0, False),
)
# (cin, cout, kernel, stride) per transposed conv: 4 -> 16 -> 50 samples,
# then a dense layer from the flattened 8x50 to both domains
DECODER = ((32, 16, 4, 4), (16, 8, 5, 3))
DENSE = (400, 2 * INPUT_LEN)

ABLATIONS = ("full", "no_mutual_attention", "no_wavelet_loss", "vanilla")
# variants whose forward pass bypasses the attention stage
_NO_ATTENTION = ("no_mutual_attention", "vanilla")


@dataclass(frozen=True)
class ModelConfig:
    """The model variant: which ablation of the one architecture runs."""

    ablation: str = "full"

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}; "
                              f"expected one of {ABLATIONS}")

    @property
    def uses_attention(self) -> bool:
        return self.ablation not in _NO_ATTENTION

    @property
    def uses_wavelet_loss(self) -> bool:
        return self.ablation not in ("no_wavelet_loss", "vanilla")


@dataclass
class AttentionParams:
    """Shared projection kernels for both attention directions."""

    w_q: ad.Tensor   # (C/r, C, 1)
    w_k: ad.Tensor   # (C/r, C, 1)
    w_v: ad.Tensor   # (C, C, 1)
    gamma: ad.Tensor  # scalar gate, starts at exactly 0


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
            for i, (cin, cout, k, s, pad, act) in enumerate(ENCODER):
                w = self.params.register(f"{branch}.conv{i}.weight",
                                         uniform((cout, cin, k), cin * k))
                b = self.params.register(f"{branch}.conv{i}.bias",
                                         ad.Tensor(np.zeros(cout)))
                layers.append((w, b, s, pad, act))
            self._enc[branch] = layers

        c, r = LATENT_CHANNELS, REDUCTION
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

        self._dec = []
        for i, (cin, cout, k, s) in enumerate(DECODER):
            w = self.params.register(f"decoder.tconv{i}.weight",
                                     uniform((cin, cout, k), cin * k))
            b = self.params.register(f"decoder.tconv{i}.bias",
                                     ad.Tensor(np.zeros(cout)))
            self._dec.append((w, b, s))
        dense_in, dense_out = DENSE
        self.dense_w = self.params.register(
            "decoder.out.weight", uniform(DENSE, dense_in))
        self.dense_b = self.params.register(
            "decoder.out.bias", ad.Tensor(np.zeros(dense_out)))

    # -- stages ------------------------------------------------------------

    def encode(self, x, which: str) -> ad.Tensor:
        if which not in ("time", "freq"):
            raise ConfigError(f"unknown encoder branch {which!r}")
        x = ad.as_tensor(x)
        if x.data.ndim != 3 or x.data.shape[1:] != (1, INPUT_LEN):
            raise ShapeError(f"encoder expects (B,1,{INPUT_LEN}), "
                             f"got {x.data.shape}")
        h = x
        for w, b, stride, pad, act in self._enc[f"{which}_encoder"]:
            h = ad.conv1d(h, w, b=b, stride=stride, padding=pad, relu=act)
        return h

    def fuse(self, tx: ad.Tensor, fx: ad.Tensor):
        if self.config.uses_attention:
            return fuse_bidirectional(tx, fx, self.attention)
        return tx, fx

    def decode(self, fused: ad.Tensor) -> ad.Tensor:
        fused = ad.as_tensor(fused)
        if fused.data.ndim != 2 or fused.data.shape[1] != FUSED_DIM:
            raise ShapeError(f"decoder expects (B,{FUSED_DIM}), "
                             f"got {fused.data.shape}")
        b = fused.data.shape[0]
        h = ad.reshape(fused, (b, 2 * LATENT_CHANNELS, LATENT_LEN))
        for w, bias, stride in self._dec:
            h = ad.conv1d_transpose(h, w, b=bias, stride=stride, relu=True)
        h = ad.reshape(h, (b, DENSE[0]))
        return ad.add_bias(ad.matmul(h, self.dense_w), self.dense_b)

    def forward(self, time_in, freq_in) -> ad.Tensor:
        time_in, freq_in = ad.as_tensor(time_in), ad.as_tensor(freq_in)
        n = INPUT_LEN
        if time_in.data.ndim != 2 or time_in.data.shape[1] != n:
            raise ShapeError(f"expected (B,{n}) time input, got "
                             f"{time_in.data.shape}")
        if freq_in.data.shape != time_in.data.shape:
            raise ShapeError("time and frequency batches must match")
        b = time_in.data.shape[0]
        tx = self.encode(ad.reshape(time_in, (b, 1, n)), "time")
        fx = self.encode(ad.reshape(freq_in, (b, 1, n)), "freq")
        tx, fx = self.fuse(tx, fx)
        cl = LATENT_CHANNELS * LATENT_LEN
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
