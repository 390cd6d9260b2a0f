"""Autodiff op oracles and gradient checks."""

import math
import threading

import numpy as np
import pytest

from dawnet import autodiff as ad
from dawnet import model, training, wavelet
from dawnet.errors import ConfigError, DawnetError, NumericalError, ShapeError

import oracles


def _t(arr, rg=True):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


# --- frozen examples -------------------------------------------------------

def test_scalar_square_gradient():
    theta = _t(3.0)
    loss = oracles.mul(theta, theta)
    ad.backward(loss)
    assert abs(theta.grad - 6.0) < 1e-9


def test_softmax_example():
    x = _t([[0.0, math.log(3.0)]])
    y = ad.softmax_rows(x)
    np.testing.assert_allclose(y.data, [[0.25, 0.75]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = _t(rng.standard_normal((3, 4, 5)))
    y = ad.softmax_rows(x)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones((3, 4)), atol=1e-12)


def test_conv1d_example():
    x = _t([[[1.0, 2.0, 3.0]]])
    w = _t([[[1.0, 1.0]]])
    y = ad.conv1d(x, w)
    np.testing.assert_allclose(y.data, [[[3.0, 5.0]]])


def test_reflect_padding_example():
    # pad=1 around [a,b,c] gives [b,a,b,c,b]; probe with an identity kernel
    x = _t([[[1.0, 2.0, 3.0]]], rg=False)
    w = _t(np.zeros((1, 1, 3)), rg=False)
    w.data[0, 0, 1] = 1.0  # center tap passes the padded sequence through
    xp = ad._pad_last(x.data, 1, 1)
    np.testing.assert_allclose(xp[0, 0], [2.0, 1.0, 2.0, 3.0, 2.0])
    y = ad.conv1d(x, w, padding=1)
    np.testing.assert_allclose(y.data, [[[1.0, 2.0, 3.0]]])


def test_conv1d_transpose_example():
    x = _t([[[1.0, 0.0]]])
    w = _t([[[1.0, 2.0]]])
    y = ad.conv1d_transpose(x, w, stride=2)
    np.testing.assert_allclose(y.data, [[[1.0, 2.0, 0.0, 0.0]]])


def test_mse_value():
    a = _t([1.0, 2.0, 3.0])
    b = _t([1.0, 1.0, 1.0], rg=False)
    loss = oracles.mse(a, b)
    np.testing.assert_allclose(loss.data, (0.0 + 1.0 + 4.0) / 3.0)


def test_l2_normalize():
    v = ad.l2_normalize([3.0, 4.0])
    np.testing.assert_allclose(v, [0.6, 0.8])
    with pytest.raises(NumericalError):
        ad.l2_normalize(np.zeros(4))


# --- shape / domain errors -------------------------------------------------

def test_shape_errors():
    with pytest.raises(ShapeError):
        ad.add(_t([1.0, 2.0]), _t([1.0, 2.0, 3.0]))
    with pytest.raises(ShapeError):
        ad.matmul(_t(np.ones((2, 3))), _t(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        ad.conv1d(_t(np.ones((1, 1, 3))), _t(np.ones((1, 1, 5))))
    with pytest.raises(ShapeError):
        # reflect padding must not exceed input length - 1
        ad.conv1d(_t(np.ones((1, 1, 3))), _t(np.ones((1, 1, 9))),
                  padding=4)
    with pytest.raises(ConfigError):
        ad.conv1d(_t(np.ones((1, 1, 8))), _t(np.ones((1, 1, 3))), stride=0)
    with pytest.raises(ShapeError):
        # a bias of the wrong length must not broadcast over channels
        ad.conv1d(_t(np.ones((1, 1, 8))), _t(np.ones((1, 1, 3))),
                  b=_t(np.ones(2)))
    with pytest.raises(ShapeError):
        ad.conv1d_transpose(_t(np.ones((1, 1, 4))), _t(np.ones((1, 2, 3))),
                            b=_t(np.ones((2, 1))))
    with pytest.raises(ShapeError):
        # a bare subtraction would broadcast (1, 8) against (2, 8)
        training.composite_loss(_t(np.ones((1, 8))), np.ones((2, 8)), None,
                                1.0, 0.0)
    with pytest.raises(ShapeError):
        # reflect padding of a 9-tap bank needs at least 5 samples
        ad.dwt_gram(np.ones((1, 9)), 4)
    with pytest.raises(ShapeError):
        ad.backward(_t(np.ones(3)))


def test_add_bias_takes_only_a_batch_of_features():
    # a conv layer adds its per-channel bias inside its own node; the
    # product op broadcasts over (B, F) only
    assert np.array_equal(ad.add_bias(_t(np.zeros((2, 3))),
                                      _t([1.0, 2.0, 3.0])).data,
                          [[1.0, 2.0, 3.0]] * 2)
    with pytest.raises(ShapeError):
        ad.add_bias(_t(np.zeros((2, 3, 5))), _t(np.ones(3)))


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_forward_raises():
    x = _t([1.0, 0.0])
    big = ad.scale(x, 1e308)
    with pytest.raises(NumericalError):
        oracles.mul(big, big)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fused_conv_checks_before_relu():
    # finite input, huge finite weights: every pre-activation is -inf, which
    # the ReLU would turn into 0, so the check must come first
    x = _t(np.ones((1, 1, 4)))
    w = _t(np.full((1, 1, 2), -1e308))
    with pytest.raises(NumericalError):
        ad.conv1d(x, w, b=_t(np.zeros(1)), relu=True)


@pytest.mark.parametrize("length", range(2, 7))
def test_pad_last_matches_np_pad(length):
    x = np.random.default_rng(length).standard_normal((2, 3, length))
    for pl in range(length):
        for pr in range(length):
            want = np.pad(x, [(0, 0), (0, 0), (pl, pr)], mode="reflect")
            assert np.array_equal(ad._pad_last(x, pl, pr), want)
    for pl, pr in ((length, 0), (0, length), (length + 1, 1)):
        with pytest.raises(ShapeError):
            ad._pad_last(x, pl, pr)


def _conv_cases():
    """(transposed, cin, cout, k, stride, pad, input length) of every conv
    layer the model runs through a bias."""
    rows, length = [], model.INPUT_LEN
    for cin, cout, k, s, pad, _ in model.ENCODER:
        rows.append((False, cin, cout, k, s, pad, length))
        length = (length + 2 * pad - k) // s + 1
    length = model.LATENT_LEN
    for cin, cout, k, s in model.DECODER:
        rows.append((True, cin, cout, k, s, 0, length))
        length = (length - 1) * s + k
    return rows


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("case", _conv_cases())
def test_fused_conv_matches_unfused_chain(case, bias, relu):
    # one node must compute relu(add_bias(conv(x))) and its gradients bit
    # for bit, including the reflect-padded and the unpadded layers
    transposed, cin, cout, k, s, pad, length = case
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((3, cin, length))
    ws = rng.standard_normal((cin, cout, k) if transposed else (cout, cin, k))
    bs = rng.standard_normal(cout) * 0.5

    def conv(x, w, b=None, relu=False):
        if transposed:
            return ad.conv1d_transpose(x, w, b=b, stride=s, relu=relu)
        return ad.conv1d(x, w, b=b, stride=s, padding=pad, relu=relu)

    def run(fused):
        x, w, b = _t(xs), _t(ws), _t(bs)
        if fused:
            y = conv(x, w, b=b if bias else None, relu=relu)
        else:
            y = conv(x, w)
            if bias:
                y = oracles.add_channel_bias(y, b)
            if relu:
                y = oracles.relu(y)
        probe = np.random.default_rng(6).standard_normal(y.data.shape)
        ad.backward(oracles.mse(y, _t(probe, rg=False)))
        return y.data, x.grad, w.grad, b.grad

    got, want = run(True), run(False)
    if relu:
        assert 0 < np.count_nonzero(want[0]) < want[0].size
    for a, r in zip(got, want):
        assert (a is None) == (r is None)
        assert r is None or np.array_equal(a, r)


# --- adjoint identity ------------------------------------------------------

def test_conv_tconv_adjoint_identity():
    rng = np.random.default_rng(11)
    x = _t(rng.standard_normal((2, 3, 16)), rg=False)
    w = _t(rng.standard_normal((4, 3, 5)), rg=False)
    for s in (1, 2, 3):
        yc = ad.conv1d(x, w, stride=s)
        probe = rng.standard_normal(yc.data.shape)
        lhs = float(np.sum(yc.data * probe))
        back = ad.conv1d_transpose(_t(probe, rg=False), w, stride=s).data
        if back.shape[2] < 16:
            back = np.pad(back, [(0, 0), (0, 0), (0, 16 - back.shape[2])])
        rhs = float(np.sum(x.data * back[..., :16]))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# --- gradient checks (exhaustive, small shapes) ----------------------------

def test_grad_dense_chain():
    rng = np.random.default_rng(1)
    x = _t(rng.standard_normal((3, 4)), rg=False)
    w = _t(rng.standard_normal((4, 5)) * 0.5)
    b = _t(np.zeros(5))
    target = rng.standard_normal((3, 5))

    def f():
        return oracles.mse(oracles.relu(ad.add_bias(ad.matmul(x, w), b)),
                           _t(target, rg=False))

    assert oracles.grad_check(f, [w, b]) < 1e-4


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 2), (1, 3), (2, 3)])
def test_grad_conv1d(stride, padding):
    rng = np.random.default_rng(2)
    x = _t(rng.standard_normal((2, 3, 10)))
    w = _t(rng.standard_normal((4, 3, 4)) * 0.4)
    b = _t(rng.standard_normal(4) * 0.1)
    lo = (10 + 2 * padding - 4) // stride + 1
    target = rng.standard_normal((2, 4, lo))

    def f():
        y = ad.conv1d(x, w, b=b, stride=stride, padding=padding)
        return oracles.mse(y, _t(target, rg=False))

    assert oracles.grad_check(f, [x, w, b]) < 1e-4


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_grad_conv1d_transpose(stride):
    rng = np.random.default_rng(3)
    x = _t(rng.standard_normal((2, 4, 5)))
    w = _t(rng.standard_normal((4, 3, 4)) * 0.4)
    b = _t(rng.standard_normal(3) * 0.1)
    target = rng.standard_normal((2, 3, (5 - 1) * stride + 4))

    def f():
        y = ad.conv1d_transpose(x, w, b=b, stride=stride)
        return oracles.mse(y, _t(target, rg=False))

    assert oracles.grad_check(f, [x, w, b]) < 1e-4


def test_grad_dwt():
    rng = np.random.default_rng(4)
    x = _t(rng.standard_normal((2, 2, 12)))
    kern = _t(rng.standard_normal((2, 5)) * 0.5)
    target = rng.standard_normal((2, 2, 2, 12))

    def f():
        return oracles.mse(oracles.dwt(x, kern), _t(target, rg=False))

    assert oracles.grad_check(f, [x, kern]) < 1e-4


def test_grad_softmax_attention_path():
    rng = np.random.default_rng(5)
    q = _t(rng.standard_normal((2, 3, 2)))
    k = _t(rng.standard_normal((2, 2, 3)))
    v = _t(rng.standard_normal((2, 3, 3)))
    gamma = _t(0.7)
    target = rng.standard_normal((2, 3, 3))

    def f():
        att = ad.softmax_rows(ad.scale(ad.matmul(q, k), 1.0 / math.sqrt(2.0)))
        out = ad.mul_scalar(ad.matmul(att, v), gamma)
        return oracles.mse(out, _t(target, rg=False))

    assert oracles.grad_check(f, [q, k, v, gamma]) < 1e-4


def test_grad_structural_ops():
    rng = np.random.default_rng(6)
    a = _t(rng.standard_normal((2, 3, 4)))
    b = _t(rng.standard_normal((2, 5, 4)))
    target = rng.standard_normal((2, 4, 8))

    def f():
        cat = ad.concat([a, b], axis=1)          # (2,8,4)
        sw = ad.swap_cl(cat)                      # (2,4,8)
        return oracles.mse(sw, _t(target, rg=False))

    assert oracles.grad_check(f, [a, b]) < 1e-4


def test_grad_accumulates_on_reuse():
    # a tensor consumed twice must receive the sum of both contributions
    x = _t(2.0)
    # x^2 + 3x -> 2x + 3 = 7
    loss = ad.add(oracles.mul(x, x), ad.scale(x, 3.0))
    ad.backward(loss)
    assert abs(x.grad - 7.0) < 1e-9


def _reachable(root):
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_consumes_the_graph():
    # a B=2 full-model step with the wavelet loss covers every op the
    # detector trains through
    net = model.DualDomainAutoencoder(model.ModelConfig(ablation="full"))
    amp, psd = np.random.default_rng(5).standard_normal((2, 2,
                                                         model.INPUT_LEN))
    x = np.concatenate([amp, psd], axis=1)
    target = _t(x, rg=False)
    out = net.forward(x)
    loss = training.composite_loss(out, target, wavelet.build_bank((4, 8)),
                                   1.0, 0.1)
    nodes = _reachable(loss)
    data = [n.data.copy() for n in nodes]
    interior = [n for n in nodes if n._backward is not None]
    ad.backward(loss)

    for n in interior:
        assert n.grad is None and n._parents == ()
        assert n._backward is ad._consumed
    params = list(net.params.values())
    assert all(p.grad is not None for p in params)
    assert all(np.array_equal(n.data, d) for n, d in zip(nodes, data))

    grads = [p.grad.copy() for p in params]
    w = net.params["decoder.tconv0.weight"]
    with pytest.raises(DawnetError):
        ad.backward(loss)
    with pytest.raises(DawnetError):
        # the walk reaches the leaf w before it reaches the consumed output
        ad.backward(ad.add(oracles.mse(w, np.zeros(w.data.shape)),
                           oracles.mse(out, target)))
    assert all(np.array_equal(p.grad, g) for p, g in zip(params, grads))


def test_no_grad_blocks_graph():
    x = _t(1.5)
    with ad.no_grad():
        y = oracles.mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_no_grad_holds_per_thread():
    # a thread started inside this thread's no_grad block builds its graph
    x, built = _t(1.5), []
    with ad.no_grad():
        other = threading.Thread(
            target=lambda: built.append(oracles.mul(x, x)))
        other.start()
        other.join()
        assert not oracles.mul(x, x).requires_grad
    (y,) = built
    assert y.requires_grad and y._parents == (x, x)
