"""Model contracts: attention oracle, identity gates, shapes, persistence."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from dawnet import autodiff as ad
from dawnet import datafile
from dawnet import model as m
from dawnet import training
from dawnet.errors import ConfigError, ShapeError


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
    n_attn = sum(net.params[k].data.size
                 for k in net.params.names() if k.startswith("attention."))
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
    out = net.forward(rng.standard_normal((3, 800)), rng.standard_normal((3, 800)))
    assert out.data.shape == (3, 1600)
    assert np.all(np.isfinite(out.data))
    with pytest.raises(ShapeError):
        net.forward(rng.standard_normal((3, 700)), rng.standard_normal((3, 700)))


def test_decode_shape_guard():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    with pytest.raises(ShapeError):
        net.decode(ad.Tensor(np.zeros((2, 100))))


def test_same_seed_same_init():
    a = m.DualDomainAutoencoder(m.ModelConfig(), seed=7)
    b = m.DualDomainAutoencoder(m.ModelConfig(), seed=7)
    assert a.params.names() == b.params.names()
    for name in a.params.names():
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    c = m.DualDomainAutoencoder(m.ModelConfig(), seed=8)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params.names())


def test_gamma_initialized_to_exactly_zero():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=3)
    assert float(net.params["attention.gamma"].data) == 0.0


def test_full_equals_no_attention_at_init():
    # same seed -> identical weights; gamma=0 makes attention a pass-through
    rng = np.random.default_rng(5)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    full = m.DualDomainAutoencoder(m.ModelConfig(ablation="full"), seed=11)
    noat = m.DualDomainAutoencoder(
        m.ModelConfig(ablation="no_mutual_attention"), seed=11)
    ya = full.forward(t_in, f_in).data
    yb = noat.forward(t_in, f_in).data
    assert np.array_equal(ya, yb)  # bitwise


def test_batch_equivariance():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=2)
    net.params["attention.gamma"].data = np.array(0.5)  # make fusion active
    rng = np.random.default_rng(6)
    t_in = rng.standard_normal((4, 800))
    f_in = rng.standard_normal((4, 800))
    perm = np.array([2, 0, 3, 1])
    y = net.forward(t_in, f_in).data
    yp = net.forward(t_in[perm], f_in[perm]).data
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
    net.params["attention.gamma"].data = np.array(0.25)
    p = tmp_path / "model.bin"
    datafile.write_checkpoint(p, {"model": asdict(net.config)},
                              net.named_parameters())
    cfg, params = datafile.read_checkpoint(p)
    net2 = m.DualDomainAutoencoder(m.ModelConfig(**cfg["model"]), seed=99)
    net2.load_named_parameters(params)
    rng = np.random.default_rng(9)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    np.testing.assert_array_equal(net.forward(t_in, f_in).data,
                                  net2.forward(t_in, f_in).data)


def test_load_rejects_wrong_names():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=0)
    bad = [("nope", np.zeros(3))] + net.named_parameters()[1:]
    with pytest.raises(ConfigError):
        net.load_named_parameters(bad)


# --- gradients -----------------------------------------------------------------

def test_grad_check_through_decode():
    net = m.DualDomainAutoencoder(m.ModelConfig(), seed=6)
    rng = np.random.default_rng(10)
    fused = rng.standard_normal((2, 128))
    target = rng.standard_normal((2, 1600))
    dec_params = [net.params[n] for n in net.params.names()
                  if n.startswith("decoder.")]

    def f():
        return ad.mse(net.decode(fused), ad.Tensor(target))

    err = ad.grad_check(f, dec_params, samples_per_param=4,
                        rng=np.random.default_rng(0))
    assert err < 1e-4


def test_grad_check_full_forward():
    net = m.DualDomainAutoencoder(m.ModelConfig(ablation="full"), seed=6)
    # push gamma off zero so attention weights receive gradient
    net.params["attention.gamma"].data = np.array(0.3)
    rng = np.random.default_rng(11)
    t_in = rng.standard_normal((2, 800))
    f_in = rng.standard_normal((2, 800))
    target = rng.standard_normal((2, 1600))

    def f():
        return ad.mse(net.forward(t_in, f_in), ad.Tensor(target))

    err = ad.grad_check(f, net.params.tensors(), samples_per_param=3,
                        rng=np.random.default_rng(1))
    assert err < 1e-4
