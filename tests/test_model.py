"""Model contracts: attention oracle, identity gates, shapes, persistence."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from dawnet import autodiff as ad
from dawnet import datafile
from dawnet import model as m
from dawnet import training
from dawnet.errors import ConfigError, FormatError, ShapeError

import oracles


def _attn_params(c, r, seed=0, gamma=0.0):
    rng = np.random.default_rng(seed)
    return m.AttentionParams(
        w_q=ad.Tensor(rng.standard_normal((c // r, c, 1)), requires_grad=True),
        w_k=ad.Tensor(rng.standard_normal((c // r, c, 1)), requires_grad=True),
        w_v=ad.Tensor(rng.standard_normal((c, c, 1)), requires_grad=True),
        gamma=ad.Tensor(np.array(gamma), requires_grad=True),
    )


def _naive_mutual(x, y, p):
    """Readable three-loop oracle for the mutual-attention computation."""
    wq, wk, wv = p.w_q.data[..., 0], p.w_k.data[..., 0], p.w_v.data[..., 0]
    gamma = float(p.gamma.data)
    bsz, c, length = x.shape
    d = wq.shape[0]
    out = np.empty_like(x)
    for b in range(bsz):
        q = wq @ x[b]              # (d, L)
        k = wk @ y[b]              # (d, L)
        v = wv @ y[b]              # (C, L)
        scores = q.T @ k / math.sqrt(d)
        aff = np.exp(scores - scores.max(axis=1, keepdims=True))
        aff /= aff.sum(axis=1, keepdims=True)
        for ci in range(c):
            for i in range(length):
                acc = sum(aff[i, j] * v[ci, j] for j in range(length))
                out[b, ci, i] = x[b, ci, i] + gamma * acc
    return out


# --- attention ----------------------------------------------------------------

def test_attention_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for case in range(20):
        bsz = 1 + case % 2
        length = 1 + case % 5
        p = _attn_params(8, 8, seed=case, gamma=rng.standard_normal())
        x = ad.Tensor(rng.standard_normal((bsz, 8, length)))
        y = ad.Tensor(rng.standard_normal((bsz, 8, length)))
        got = m.mutual_attention(x, y, p).data
        want = _naive_mutual(x.data, y.data, p)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_attention_gamma_zero_is_bitwise_identity():
    rng = np.random.default_rng(0)
    p = _attn_params(16, 8, gamma=0.0)
    x = ad.Tensor(rng.standard_normal((3, 16, 4)))
    y = ad.Tensor(rng.standard_normal((3, 16, 4)))
    out = m.mutual_attention(x, y, p)
    assert np.array_equal(out.data, x.data)  # bitwise, not allclose


def test_attention_length_one():
    p = _attn_params(8, 8, gamma=0.5)
    rng = np.random.default_rng(1)
    x = ad.Tensor(rng.standard_normal((2, 8, 1)))
    y = ad.Tensor(rng.standard_normal((2, 8, 1)))
    out = m.mutual_attention(x, y, p).data
    want = x.data + 0.5 * np.einsum("oc,bcl->bol", p.w_v.data[..., 0], y.data)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_affinity_rows_sum_to_one():
    rng = np.random.default_rng(3)
    q = ad.Tensor(rng.standard_normal((2, 4, 2)))
    k = ad.Tensor(rng.standard_normal((2, 2, 4)))
    aff = ad.softmax_rows(ad.scale(ad.matmul(q, k), 1.0 / math.sqrt(2)))
    np.testing.assert_allclose(aff.data.sum(axis=-1), 1.0, atol=1e-12)


def test_fuse_is_order_sensitive_and_shares_params():
    rng = np.random.default_rng(4)
    p = _attn_params(16, 8, gamma=0.8)
    x = ad.Tensor(rng.standard_normal((2, 16, 4)))
    y = ad.Tensor(rng.standard_normal((2, 16, 4)))
    fx, fy = m.fuse_bidirectional(x, y, p)
    gx, gy = m.fuse_bidirectional(y, x, p)
    assert not np.allclose(fx.data, gy.data)
    # second direction consumes the refined first output
    y_from_refined = m.mutual_attention(y, fx, p)
    np.testing.assert_array_equal(fy.data, y_from_refined.data)
    # perturbing shared w_q changes both outputs
    p.w_q.data = p.w_q.data + 0.3
    fx2, fy2 = m.fuse_bidirectional(x, y, p)
    assert not np.allclose(fx.data, fx2.data)
    assert not np.allclose(fy.data, fy2.data)


def test_attention_param_count():
    # query and key at channel reduction 8, value, and the gate
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    n_attn = sum(t.data.size for k, t in net.params.items()
                 if k.startswith("attention."))
    assert n_attn == 2 * (16 * 16 // 8) + 16 * 16 + 1 == 321


# --- config -------------------------------------------------------------------

def test_model_config_validation():
    with pytest.raises(ConfigError):
        m.ModelConfig(ablation="bogus")
    assert asdict(m.ModelConfig("vanilla")) == {"ablation": "vanilla"}
    # the layer sizes are fixed: a config that still names one is refused
    with pytest.raises(TypeError):
        m.ModelConfig(ablation="full", input_len=800)


def test_ablation_flags():
    assert m.ModelConfig(ablation="full").uses_attention
    assert m.ModelConfig(ablation="full").uses_wavelet_loss
    assert not m.ModelConfig(ablation="no_mutual_attention").uses_attention
    assert m.ModelConfig(ablation="no_mutual_attention").uses_wavelet_loss
    assert m.ModelConfig(ablation="no_wavelet_loss").uses_attention
    assert not m.ModelConfig(ablation="no_wavelet_loss").uses_wavelet_loss
    assert not m.ModelConfig(ablation="vanilla").uses_attention
    assert not m.ModelConfig(ablation="vanilla").uses_wavelet_loss


@pytest.mark.parametrize("ablation,weight", [
    ("full", 0.25), ("no_mutual_attention", 0.25), ("no_wavelet_loss", 0.0),
    ("vanilla", 0.0)])
def test_effective_lambda2(ablation, weight):
    # the wavelet-term weight each variant trains and scores with
    cfg = m.ModelConfig(ablation=ablation)
    assert training.wavelet_term(cfg, 0.25, (4, 8))[0] == weight


# --- network ------------------------------------------------------------------

def test_encoder_shapes():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    x = ad.Tensor(np.random.default_rng(0).standard_normal((4, 1, 800)))
    z = net.encode(x, "time")
    assert z.data.shape == (4, 16, 4)
    with pytest.raises(ShapeError):
        net.encode(ad.Tensor(np.zeros((4, 1, 799))), "time")
    with pytest.raises(ConfigError):
        net.encode(x, "sideways")


def test_forward_shapes_and_finiteness():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=1)
    rng = np.random.default_rng(2)
    out = net.forward(np.concatenate([rng.standard_normal((3, 800)),
                                      rng.standard_normal((3, 800))], axis=1))
    assert out.data.shape == (3, 1600)
    assert np.all(np.isfinite(out.data))
    with pytest.raises(ShapeError):
        net.forward(np.concatenate([rng.standard_normal((3, 700)),
                                    rng.standard_normal((3, 700))], axis=1))


def test_decode_shape_guard():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    with pytest.raises(ShapeError):
        net.decode(ad.Tensor(np.zeros((2, 100))))
    with pytest.raises(ShapeError):
        net.decode(ad.Tensor(np.zeros((2, 16, 4))))


def test_same_seed_same_init():
    a = m.DualDomainAutoencoder(m.ModelConfig(), seed=7)
    b = m.DualDomainAutoencoder(m.ModelConfig(), seed=7)
    assert list(a.params) == list(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = m.DualDomainAutoencoder(m.ModelConfig(), seed=8)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params)


def test_parameter_names_and_shapes():
    # the checkpoint's parameter list, in creation order: a repeated name
    # would drop an entry from the dict and shorten this list
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    encoder = [((8, 1, 7), (8,)), ((16, 8, 7), (16,)), ((16, 16, 7), (16,)),
               ((16, 16, 7), (16,)), ((16, 16, 14), (16,))]
    want = [(f"{branch}.conv{i}.{kind}", shape)
            for branch in ("time_encoder", "freq_encoder")
            for i, shapes in enumerate(encoder)
            for kind, shape in zip(("weight", "bias"), shapes)]
    want += [("attention.w_q", (2, 16, 1)), ("attention.w_k", (2, 16, 1)),
             ("attention.w_v", (16, 16, 1)), ("attention.gamma", ()),
             ("decoder.tconv0.weight", (32, 16, 4)),
             ("decoder.tconv0.bias", (16,)),
             ("decoder.tconv1.weight", (16, 8, 5)),
             ("decoder.tconv1.bias", (8,)),
             ("decoder.out.weight", (400, 1600)),
             ("decoder.out.bias", (1600,))]
    assert len(want) == 30
    assert [(n, a.shape) for n, a in net.named_parameters()] == want
    assert all(t.requires_grad for t in net.params.values())


def test_gamma_initialized_to_exactly_zero():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=3)
    assert float(net.params["attention.gamma"].data) == 0.0


def test_full_equals_no_attention_at_init():
    # same seed -> identical weights; gamma=0 makes attention a pass-through
    rng = np.random.default_rng(5)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    x = np.concatenate([t_in, f_in], axis=1)
    full = m.DualDomainAutoencoder(m.ModelConfig(ablation="full"), seed=11)
    noat = m.DualDomainAutoencoder(
        m.ModelConfig(ablation="no_mutual_attention"), seed=11)
    ya = full.forward(x).data
    yb = noat.forward(x).data
    assert np.array_equal(ya, yb)  # bitwise


def test_batch_equivariance():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=2)
    net.values["attention.gamma"] = 0.5  # make fusion active
    rng = np.random.default_rng(6)
    t_in = rng.standard_normal((4, 800))
    f_in = rng.standard_normal((4, 800))
    x = np.concatenate([t_in, f_in], axis=1)
    perm = np.array([2, 0, 3, 1])
    y = net.forward(x).data
    yp = net.forward(x[perm]).data
    np.testing.assert_allclose(yp, y[perm], atol=1e-10)


def test_identical_rows_identical_latents():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=2)
    row = np.random.default_rng(8).standard_normal(800)
    x = ad.Tensor(np.stack([row, row])[:, None, :])
    z = net.encode(x, "freq").data
    np.testing.assert_array_equal(z[0], z[1])


# --- persistence ---------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=4)
    net.values["attention.gamma"] = 0.25
    p = tmp_path / "model.bin"
    datafile.write_checkpoint(p, {"model": asdict(net.config)}, net.values)
    cfg, values = datafile.read_checkpoint(p)
    net2 = m.DualDomainAutoencoder(m.ModelConfig(**cfg["model"]),
                                   parameters=values)
    rng = np.random.default_rng(9)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    x = np.concatenate([t_in, f_in], axis=1)
    np.testing.assert_array_equal(net.forward(x).data, net2.forward(x).data)


def _not_a_record(case):
    """A model's parameters as anything but one ``PARAMETERS`` record."""
    fields = [(name, "<f8", shape) for name, shape, _ in m.LAYOUT]
    if case == "renamed":
        fields[0] = ("nope", *fields[0][1:])
    elif case == "reshaped":
        fields[1] = (fields[1][0], "<f8", (3,))
    elif case == "extra":
        fields.append(("wavelet.kernels", "<f8", (3, 64)))
    elif case == "missing":
        fields.pop()
    elif case == "reordered":
        fields[0], fields[2] = fields[2], fields[0]
    elif case == "float32":
        fields[-1] = (fields[-1][0], "<f4", fields[-1][2])
    elif case == "batch":
        return np.zeros((1,), m.PARAMETERS)
    elif case == "pairs":
        return m.DualDomainAutoencoder(m.ModelConfig()).named_parameters()
    return np.zeros((), fields)


@pytest.mark.parametrize("case", ["renamed", "reshaped", "extra", "missing",
                                  "reordered", "float32", "batch", "pairs"])
def test_checkpoint_write_refuses_other_parameters(tmp_path, case):
    p = tmp_path / "m.dawm"
    with pytest.raises(FormatError, match="one PARAMETERS record"):
        datafile.write_checkpoint(p, {}, _not_a_record(case))
    assert not p.exists()


def test_load_rejects_wrong_names():
    with pytest.raises(ConfigError):
        m.DualDomainAutoencoder(m.ModelConfig(),
                                parameters=_not_a_record("renamed"))


@pytest.mark.parametrize("case", ["reshaped", "missing", "batch", "pairs"])
def test_load_refuses_other_parameters(case):
    with pytest.raises(ConfigError, match="one PARAMETERS record"):
        m.DualDomainAutoencoder(m.ModelConfig(),
                                parameters=_not_a_record(case))


def test_parameters_are_fields_of_two_records():
    # the tape accumulates each gradient into the model's gradient record,
    # and a loaded record is trained itself, not a copy
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=9)
    loaded = m.DualDomainAutoencoder(m.ModelConfig(), parameters=net.values)
    assert loaded.values is net.values
    assert net.values.dtype == net.grads.dtype == m.PARAMETERS
    assert not np.frombuffer(net.grads, np.float64).any()
    for tensor in net.params.values():
        assert tensor.grad.shape == tensor.data.shape
        assert np.shares_memory(tensor.data, net.values)
        assert np.shares_memory(tensor.grad, net.grads)


def test_initial_values_are_drawn_in_layout_order():
    # one uniform draw per weight in LAYOUT order from SeedSequence([seed,
    # 1]), biases and the gate at 0: checkpoints of a seed stay the same
    rng = np.random.default_rng(np.random.SeedSequence([4, 1]))
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=4)
    for name, shape, fan_in in m.LAYOUT:
        bound = 1.0 / math.sqrt(fan_in or 1)
        want = (np.zeros(shape) if fan_in is None else
                rng.uniform(-bound, bound, size=shape))
        assert net.values[name].tobytes() == want.tobytes(), name


# --- gradients -----------------------------------------------------------------

def test_grad_check_through_decode():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=6)
    rng = np.random.default_rng(10)
    code = rng.standard_normal((2, 128)).reshape(2, 32, 4)
    target = rng.standard_normal((2, 1600))
    dec_params = [t for n, t in net.params.items()
                  if n.startswith("decoder.")]

    def f():
        return oracles.mse(net.decode(code), ad.Tensor(target))

    err = oracles.grad_check(f, dec_params, samples_per_param=4,
                        rng=np.random.default_rng(0))
    assert err < 1e-4


def test_grad_check_full_forward():
    net = m.DualDomainAutoencoder(m.ModelConfig(ablation="full"), seed=6)
    # push gamma off zero so attention weights receive gradient
    net.values["attention.gamma"] = 0.3
    rng = np.random.default_rng(11)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    target = rng.standard_normal((2, 1600))
    x = np.concatenate([t_in, f_in], axis=1)

    def f():
        return oracles.mse(net.forward(x), ad.Tensor(target))

    err = oracles.grad_check(f, list(net.params.values()), samples_per_param=3,
                        rng=np.random.default_rng(1))
    assert err < 1e-4
