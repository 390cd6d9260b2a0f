"""Dual-branch convolutional autoencoder with bidirectional mutual attention.

The input is one stacked 1600-sample signal per snapshot: its normalized
amplitude followed by its normalized log-PSD. Each 800-sample half is
encoded separately to a 16x4 latent, the two are cross-refined through a
shared single-head attention block at channel reduction 8, joined on the
channel axis into a 32x4 code, and decoded back to the stacked signal.
The layer sizes are the module constants below; the only choice a model
makes is its ablation variant. Ablation flags drop the attention stage
and/or the wavelet term of the loss without touching parameter layout, so
every variant shares checkpoints and initialization.
"""

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError
from .simulate import SNAPSHOT_LEN

INPUT_LEN = SNAPSHOT_LEN                 # samples per branch input
LATENT_CHANNELS, LATENT_LEN = 16, 4      # each branch's latent
REDUCTION = 8                            # attention query/key reduction

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

# (name, shape, fan-in) of every parameter, in creation order. A weight
# starts uniform in +-1/sqrt(fan-in); a fan-in of None (biases and the
# attention gate) starts at exactly 0
LAYOUT = (
    *(entry for branch in ("time_encoder", "freq_encoder")
      for i, (cin, cout, k, *_) in enumerate(ENCODER)
      for entry in ((f"{branch}.conv{i}.weight", (cout, cin, k), cin * k),
                    (f"{branch}.conv{i}.bias", (cout,), None))),
    ("attention.w_q", (LATENT_CHANNELS // REDUCTION, LATENT_CHANNELS, 1),
     LATENT_CHANNELS),
    ("attention.w_k", (LATENT_CHANNELS // REDUCTION, LATENT_CHANNELS, 1),
     LATENT_CHANNELS),
    ("attention.w_v", (LATENT_CHANNELS, LATENT_CHANNELS, 1), LATENT_CHANNELS),
    ("attention.gamma", (), None),
    *(entry for i, (cin, cout, k, _) in enumerate(DECODER)
      for entry in ((f"decoder.tconv{i}.weight", (cin, cout, k), cin * k),
                    (f"decoder.tconv{i}.bias", (cout,), None))),
    ("decoder.out.weight", DENSE, DENSE[0]),
    ("decoder.out.bias", (DENSE[1],), None),
)
# one record of every parameter's values: a checkpoint's parameter block
PARAMETERS = np.dtype([(name, "<f8", shape) for name, shape, _ in LAYOUT])


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


def _initial_parameters(seed: int) -> np.ndarray:
    """One ``PARAMETERS`` record drawn in ``LAYOUT`` order from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    values = np.zeros((), PARAMETERS)
    for name, shape, fan_in in LAYOUT:
        if fan_in is not None:
            bound = 1.0 / math.sqrt(fan_in)
            values[name] = rng.uniform(-bound, bound, size=shape)
    return values


class DualDomainAutoencoder:
    """Encoders, shared attention, decoder; parameters in two records.

    ``params`` maps each name in ``LAYOUT`` order to a tensor whose data and
    gradient are that field of the ``PARAMETERS`` records ``values`` and
    ``grads``, so the tape accumulates into ``grads`` in place. Every
    ablation has the identical parameters, so checkpoints are
    interchangeable and seed-matched variants start from bitwise-equal
    weights.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, parameters=None):
        """Weights drawn from ``seed``, or, with nothing drawn, the
        ``PARAMETERS`` record ``parameters`` that
        :func:`datafile.read_checkpoint` returns: that record is trained,
        not a copy. Another model may share it, with tensors and gradients
        of its own, as long as only one optimizer updates it."""
        self.config = config
        if parameters is None:
            parameters = _initial_parameters(seed)
        elif not (isinstance(parameters, np.ndarray)
                  and parameters.dtype == PARAMETERS and parameters.shape == ()):
            raise ConfigError("parameters must be one PARAMETERS record")
        self.values = parameters
        # zero pages of its own, off the malloc heap: touched only in training
        self.grads = np.frombuffer(mmap.mmap(-1, PARAMETERS.itemsize),
                                   PARAMETERS).reshape(())
        self.params = {name: ad.Tensor(parameters[name], requires_grad=True)
                       for name in PARAMETERS.names}
        for name, t in self.params.items():
            t.grad = self.grads[name]
        self.attention = AttentionParams(
            *(self.params[f"attention.{n}"]
              for n in ("w_q", "w_k", "w_v", "gamma")))

    # -- stages ------------------------------------------------------------

    def encode(self, x, which: str) -> ad.Tensor:
        if which not in ("time", "freq"):
            raise ConfigError(f"unknown encoder branch {which!r}")
        x = ad.as_tensor(x)
        if x.data.ndim != 3 or x.data.shape[1:] != (1, INPUT_LEN):
            raise ShapeError(f"encoder expects (B,1,{INPUT_LEN}), "
                             f"got {x.data.shape}")
        h = x
        for i, (*_, stride, pad, act) in enumerate(ENCODER):
            layer = f"{which}_encoder.conv{i}"
            w, b = self.params[f"{layer}.weight"], self.params[f"{layer}.bias"]
            h = ad.conv1d(h, w, b=b, stride=stride, padding=pad, relu=act)
        return h

    def fuse(self, tx: ad.Tensor, fx: ad.Tensor):
        if self.config.uses_attention:
            return fuse_bidirectional(tx, fx, self.attention)
        return tx, fx

    def decode(self, code: ad.Tensor) -> ad.Tensor:
        """The (B, 2L) reconstruction of a (B, 32, 4) fused code."""
        h = ad.as_tensor(code)
        if h.data.shape[1:] != (2 * LATENT_CHANNELS, LATENT_LEN):
            raise ShapeError(f"decoder expects (B,{2 * LATENT_CHANNELS},"
                             f"{LATENT_LEN}), got {h.data.shape}")
        for i, (*_, stride) in enumerate(DECODER):
            layer = f"decoder.tconv{i}"
            w, b = self.params[f"{layer}.weight"], self.params[f"{layer}.bias"]
            h = ad.conv1d_transpose(h, w, b=b, stride=stride, relu=True)
        h = ad.reshape(h, (h.data.shape[0], DENSE[0]))
        return ad.add_bias(ad.matmul(h, self.params["decoder.out.weight"]),
                           self.params["decoder.out.bias"])

    def forward(self, x) -> ad.Tensor:
        """Reconstruct (B, 2L) stacked rows, each an amplitude half and a
        PSD half as :func:`simulate.model_inputs` makes them."""
        x = ad.as_tensor(x).data
        if x.ndim != 2 or x.shape[1] != 2 * INPUT_LEN:
            raise ShapeError(f"expected (B,{2 * INPUT_LEN}) input, got "
                             f"{x.shape}")
        tx = self.encode(x[:, None, :INPUT_LEN], "time")
        fx = self.encode(x[:, None, INPUT_LEN:], "freq")
        return self.decode(ad.concat(self.fuse(tx, fx), axis=1))

    # -- persistence ---------------------------------------------------------

    def named_parameters(self):
        return [(name, self.values[name]) for name in PARAMETERS.names]
