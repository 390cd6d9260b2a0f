"""Loss assembly, optimizer behavior, loop determinism, threshold math."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dawnet import autodiff as ad
from dawnet import evaluation as ev
from dawnet import model as m
from dawnet import simulate as sim
from dawnet import training as tr
from dawnet import wavelet
from dawnet.errors import ConfigError, NumericalError

import oracles


def _bundle(seed=3, counts=(24, 8, 4)):
    return sim.generate_dataset(seed, counts)


def _net(ablation="full", seed=0):
    return m.DualDomainAutoencoder(m.ModelConfig(ablation=ablation), seed=seed)


# --- config -------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(lambda2=-1.0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        tr.TrainConfig(epochs=0)


# --- composite loss -----------------------------------------------------------

def test_composite_loss_zero_at_target():
    bank = wavelet.build_bank((4, 8, 16))
    rng = np.random.default_rng(0)
    target = rng.standard_normal((2, 1600))
    xhat = ad.Tensor(target.copy())
    loss = tr.composite_loss(xhat, target, bank, 1.0, 0.1)
    assert float(loss.data) == 0.0


def test_composite_loss_reduces_to_mse():
    rng = np.random.default_rng(1)
    target = rng.standard_normal((3, 1600))
    xhat = ad.Tensor(rng.standard_normal((3, 1600)))
    loss = tr.composite_loss(xhat, target, None, 2.5, 0.0)
    want = 2.5 * np.mean((xhat.data - target) ** 2)
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-12)


def test_composite_loss_impulse_oracle():
    # unit-norm kernels: an interior impulse of height eps adds exactly
    # eps^2/N for the mse term and S*eps^2/N for the wavelet term
    bank = wavelet.build_bank((4, 8, 16))
    rng = np.random.default_rng(2)
    target = rng.standard_normal((1, 1600))
    eps = 0.25
    xhat = target.copy()
    xhat[0, 800] += eps
    loss = tr.composite_loss(ad.Tensor(xhat), target, bank, 1.0, 1.0)
    want = eps * eps / 1600.0 + 3.0 * eps * eps / 1600.0
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-9)


@pytest.mark.parametrize("lambda2", [0.0, 0.1])
def test_composite_loss_is_mean_of_per_sample_losses(lambda2):
    # training minimizes the batch mean of exactly the scores that
    # calibration and evaluation threshold
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16)) if lambda2 else None
    rows = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                                1.0, lambda2)
    x = sim.model_inputs(bundle.test, bundle.norm_stats)
    loss = tr.composite_loss(net.forward(x), x, bank, 1.0, lambda2)
    assert float(loss.data) == np.mean(rows)


def test_composite_loss_mse_gradient_matches_tape():
    # without the wavelet term the closed-form gradient is bitwise the one
    # the tape's mse and scale ops give
    rng = np.random.default_rng(3)
    target = rng.standard_normal((4, 1600))
    xhat = ad.Tensor(rng.standard_normal((4, 1600)), requires_grad=True)
    ad.backward(tr.composite_loss(xhat, target, None, 2.5, 0.0))
    got = xhat.grad
    xhat.grad = None
    ad.backward(ad.scale(oracles.mse(xhat, target), 2.5))
    assert np.array_equal(got, xhat.grad)


def test_composite_loss_rejects_negative_weights():
    target = np.zeros((1, 1600))
    with pytest.raises(ConfigError):
        tr.composite_loss(ad.Tensor(target), target, None, -1.0, 0.0)


# --- optimizer ----------------------------------------------------------------

def test_adam_zero_lr_keeps_params():
    values, grads = np.array([1.0, -2.0, 3.0]), np.zeros(3)
    before = values.copy()
    opt = tr.Adam(values, grads, lr=0.0)
    grads[:] = [10.0, -5.0, 1.0]
    opt.step()
    np.testing.assert_array_equal(values, before)


def test_adam_in_place_matches_textbook_update():
    # the chunked in-place step must round exactly as the whole-array
    # out-of-place expression, or checkpoints stop being byte-identical
    # across versions. The buffer spans two full chunks and a partial one,
    # and one range of it never gets a gradient: those elements keep their
    # bits, as a parameter that no gradient reaches does
    rng = np.random.default_rng(4)
    n = 2 * tr.ADAM_CHUNK + 123
    silent = slice(tr.ADAM_CHUNK - 50, tr.ADAM_CHUNK + 70)
    values, grads = rng.standard_normal(n), np.zeros(n)
    start = values.copy()
    ref, m, v = values.copy(), np.zeros(n), np.zeros(n)
    opt = tr.Adam(values, grads, lr=3e-3)
    for t in range(1, 6):
        b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        opt.grads.fill(0)
        g = rng.standard_normal(n)
        g[silent] = 0.0
        grads += g
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        ref = ref - 3e-3 * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)
        opt.step()
        for got, want in ((values, ref), (opt._m, m), (opt._v, v)):
            assert np.array_equal(got, want)
    assert values[silent].tobytes() == start[silent].tobytes()
    assert not np.array_equal(values, start)


def test_adam_refuses_a_buffer_it_cannot_update_in_place():
    # a copy would be updated instead of the parameters
    values = np.zeros((4, 4))[:, :2]
    with pytest.raises(ValueError, match="contiguous"):
        tr.Adam(values, np.zeros(8))


def test_adam_overflow_raises():
    # g * g overflows above about 1.3e154: v would turn inf and values[0]
    # would stop moving for good without a word
    opt = tr.Adam(np.ones(4), np.array([1e200, 1.0, 1.0, 1.0]))
    with np.errstate(over="ignore"):        # as `dawnet train` runs it
        with pytest.raises(NumericalError, match="overflow"):
            opt.step()


def test_adam_descends_quadratic():
    # the tape accumulates into the gradient buffer Adam reads
    values, grads = np.array([4.0]), np.zeros(1)
    t = ad.Tensor(values.reshape(()), requires_grad=True)
    t.grad = grads.reshape(())
    opt = tr.Adam(values, grads, lr=0.1)
    for _ in range(200):
        opt.grads.fill(0)
        loss = oracles.mul(t, t)
        ad.backward(loss)
        opt.step()
    assert abs(float(t.data)) < 0.1


def test_grad_check_leaves_the_model_trainable():
    # grad_check zeroes a gradient in place: a tensor whose gradient it
    # rebound would stop being a view of the model's gradient record, and
    # Adam would read zeros for it
    net = _net(seed=3)
    net.values["attention.gamma"] = 0.3
    x = np.random.default_rng(2).standard_normal((2, 2 * m.INPUT_LEN))

    def loss():
        return tr.composite_loss(net.forward(x), x, None, 1.0, 0.0)

    oracles.grad_check(loss, [net.params["decoder.out.bias"]],
                  samples_per_param=2)
    before = net.values.copy()
    opt = tr.Adam(net.values, net.grads)
    opt.grads.fill(0)
    ad.backward(loss())
    opt.step()
    for name in m.PARAMETERS.names:
        assert not np.array_equal(net.values[name], before[name]), name
    assert np.shares_memory(net.params["decoder.out.bias"].grad, net.grads)


@pytest.mark.parametrize("ablation", ["no_mutual_attention", "vanilla"])
def test_no_attention_training_keeps_attention_bits(ablation):
    # no gradient reaches the attention fields of a variant without the
    # attention stage: Adam sees 0 there, and 0 / (0 + eps) leaves them
    # bitwise as drawn, while the full model moves its gate
    bundle = _bundle(seed=23, counts=(12, 4, 4))
    cfg = tr.TrainConfig(epochs=2, batch_size=4, seed=1,
                         wavelet_scales=(4, 8))
    attention = [n for n in m.PARAMETERS.names if n.startswith("attention.")]
    assert len(attention) == 4
    nets = {a: _net(ablation=a, seed=7) for a in (ablation, "full")}
    start = nets["full"].values.copy()
    for net in nets.values():
        tr.train(bundle, net, cfg)
    for name in attention:
        assert (nets[ablation].values[name].tobytes()
                == start[name].tobytes()), name
    assert nets["full"].values["attention.gamma"] != 0.0
    assert not np.array_equal(nets[ablation].values["decoder.out.weight"],
                              start["decoder.out.weight"])


def test_training_step_memory_bounds():
    # one full-model B=64 step in the training loop's order, in traced
    # bytes (sizes, not timings): the forward tape keeps no padded conv
    # inputs, backward frees the tape as it goes, the conv adjoints build no
    # (B, Ci*K, Lo) im2col array, the leaf gradients accumulate into the
    # model's gradient record, and Adam's scratch is one chunk-sized pair.
    # The tape holds 11.5 MB (20.8 MB before that design) and the step peaks
    # 18.7 MB above its start (23.9 MB with a fresh array per leaf gradient,
    # 28.4 MB with im2col adjoints, 50.7 MB before the tape design). In the
    # whole suite both figures have read 1.9 MB higher in some runs; the
    # peak bound leaves room for that and for other numpy versions
    rng = np.random.default_rng(0)
    amp, psd = rng.standard_normal((2, 64, m.INPUT_LEN))
    x = np.concatenate([amp, psd], axis=1)
    net = _net()
    lambda2, bank = tr.wavelet_term(net.config, 0.1, (4, 8, 16))
    opt = tr.Adam(net.values, net.grads, lr=1e-3)

    def step(after_forward=lambda: None):
        out = net.forward(x)
        after_forward()
        loss = tr.composite_loss(out, x, bank, 1.0, lambda2)
        opt.grads.fill(0)
        ad.backward(loss)
        opt.step()

    step()      # the first step builds the wavelet operator's cache
    tape = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step(lambda: tape.append(tracemalloc.get_traced_memory()[0] - start))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert tape[0] <= 15e6
    assert peak <= 26e6


# --- training loop ------------------------------------------------------------

def test_train_history_length_and_validation():
    bundle = _bundle()
    net = _net()
    cfg = tr.TrainConfig(epochs=1, batch_size=8, wavelet_scales=(4, 8))
    history, lambda2, bank = tr.train(bundle, net, cfg)
    assert len(history) == 1
    assert lambda2 == 0.1 and bank.scales == (4.0, 8.0)
    bad = sim.DatasetBundle(train=bundle.test, validation=bundle.validation,
                            test=bundle.test, norm_stats=bundle.norm_stats)
    with pytest.raises(ConfigError):
        tr.train(bad, _net(), cfg)


def test_train_normalizes_per_batch(monkeypatch):
    # the split's rows are the only copy of the inputs a training run holds
    rows = []
    inputs = sim.model_inputs

    def counted(split, norm_stats):
        rows.append(len(split))
        return inputs(split, norm_stats)

    monkeypatch.setattr(sim, "model_inputs", counted)
    tr.train(_bundle(), _net(), tr.TrainConfig(epochs=2, batch_size=10))
    assert rows == [10, 10, 4] * 2


def test_calibration_normalizes_per_score_batch(monkeypatch):
    # scoring holds one normalized block of a batch per worker at a time;
    # the worker counts loop here so that the test keeps one id
    bundle = _bundle(seed=31, counts=(8, 130, 4))
    rows = []
    inputs = sim.model_inputs

    def counted(split, norm_stats):
        rows.append(len(split))
        return inputs(split, norm_stats)

    monkeypatch.setattr(sim, "model_inputs", counted)
    for workers, blocks in ((1, [64, 64, 2]), (2, [128, 2]), (3, [130])):
        monkeypatch.setattr(tr, "_workers", lambda: workers)
        rows.clear()
        tr.calibrate_threshold(_net(), bundle.validation, bundle.norm_stats,
                               None, 1.0, 0.0)
        assert rows == blocks, workers


def test_train_loss_decreases():
    bundle = _bundle(seed=11, counts=(96, 16, 8))
    net = _net(seed=1)
    cfg = tr.TrainConfig(epochs=10, batch_size=32, seed=5,
                         wavelet_scales=(4, 8))
    history, _, _ = tr.train(bundle, net, cfg)
    assert history[9] < history[0]


def test_train_deterministic():
    bundle = _bundle(seed=13, counts=(16, 4, 4))
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=3,
                         wavelet_scales=(4, 8))
    net_a = _net(seed=2)
    tr.train(bundle, net_a, cfg)
    net_b = _net(seed=2)
    tr.train(bundle, net_b, cfg)
    for name in net_a.params:
        np.testing.assert_array_equal(net_a.params[name].data,
                                      net_b.params[name].data)


def test_no_wavelet_ablation_equals_lambda2_zero():
    bundle = _bundle(seed=17, counts=(16, 4, 4))
    net_abl = _net(ablation="no_wavelet_loss", seed=4)
    net_l20 = _net(ablation="full", seed=4)
    tr.train(bundle, net_abl, tr.TrainConfig(epochs=2, batch_size=8, seed=6,
                                             lambda2=0.1))
    tr.train(bundle, net_l20, tr.TrainConfig(epochs=2, batch_size=8, seed=6,
                                             lambda2=0.0))
    for name in net_abl.params:
        np.testing.assert_array_equal(net_abl.params[name].data,
                                      net_l20.params[name].data)


def test_train_nan_abort_has_diagnostics():
    bundle = _bundle(seed=19, counts=(8, 4, 4))
    net = _net(seed=5)
    net.values["decoder.out.bias"][0] = np.nan
    cfg = tr.TrainConfig(epochs=3, batch_size=4, lambda2=0.0)
    with pytest.raises(NumericalError) as exc:
        tr.train(bundle, net, cfg)
    assert "epoch 0" in str(exc.value)


# --- two-shard steps ----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 11))
def test_shards_are_contiguous_and_two_rows_or_more(n, k):
    # a one-row product takes another BLAS path than a longer one, so a
    # row of a longer batch is never scored or trained on alone
    x = np.arange(n)
    parts = tr._shards(x, k)
    assert 1 <= len(parts) <= k
    assert np.array_equal(np.concatenate(parts), x)
    assert all(np.shares_memory(p, x) for p in parts)
    assert all(len(p) >= 2 for p in parts) or n == 1


def test_sharded_step_gradient_matches_one_batch():
    # one B=64 step at lr 0 leaves its gradient in the model's record: the
    # row-weighted sum of the two 32-row shards' gradients, within 1e-13 of
    # one B=64 pass at every field (1.3e-15 measured)
    bundle = _bundle(seed=41, counts=(64, 4, 4))
    net = _net(seed=9)
    net.values["attention.gamma"] = 0.3
    cfg = tr.TrainConfig(epochs=1, batch_size=64, learning_rate=0.0, seed=2)
    _, lambda2, bank = tr.train(bundle, net, cfg)
    ref = _net(seed=9)
    ref.values["attention.gamma"] = 0.3
    x = sim.model_inputs(bundle.train, bundle.norm_stats)
    ad.backward(tr.composite_loss(ref.forward(x), x, bank, cfg.lambda1,
                                  lambda2))
    for name in m.PARAMETERS.names:
        want = ref.grads[name]
        assert np.abs(want).max() > 0, name
        assert (np.abs(net.grads[name] - want).max()
                <= 1e-13 * np.abs(want).max()), name


@pytest.mark.parametrize("ablation", ["full", "vanilla"])
def test_train_bytes_do_not_depend_on_the_worker_count(monkeypatch,
                                                       ablation):
    # batches of 8, 8 and 5 rows: shards of 4/4 and 2/3
    bundle = _bundle(seed=43, counts=(21, 4, 4))
    cfg = tr.TrainConfig(epochs=2, batch_size=8, seed=4,
                         wavelet_scales=(4, 8))
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # hand the GIL over as often as it can
    try:
        for workers in (1, 2):
            monkeypatch.setattr(tr, "_workers", lambda: workers)
            net = _net(ablation=ablation, seed=6)
            history, _, _ = tr.train(bundle, net, cfg)
            runs.append((net.values.tobytes(), history))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1]


def test_one_row_batch_is_one_shard(monkeypatch):
    # 9 rows at batch 4: two batches of two 2-row shards, then one row,
    # which starts no thread even where a step may use two
    rows, loss = [], tr.composite_loss
    started, start_thread = [], threading.Thread.start

    def counted(xhat, *args):
        rows.append((len(xhat.data), len(started)))
        return loss(xhat, *args)

    def counted_start(thread):
        started.append(thread.name)
        start_thread(thread)

    monkeypatch.setattr(tr, "composite_loss", counted)
    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(tr, "_workers", lambda: 2)
    net = _net(seed=3)
    start = net.values.copy()
    history, _, _ = tr.train(_bundle(seed=47, counts=(9, 4, 4)), net,
                             tr.TrainConfig(epochs=1, batch_size=4))
    assert sorted(r for r, _ in rows) == [1, 2, 2, 2, 2]
    assert rows[-1] == (1, 2)       # one thread per two-shard step
    assert len(started) == 2
    assert all(math.isfinite(v) for v in history)
    assert not np.array_equal(net.values["decoder.out.bias"],
                              start["decoder.out.bias"])


@pytest.mark.parametrize("error", [NumericalError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_rows", [2, 3])
def test_error_in_the_worker_shard_reaches_the_caller(monkeypatch, error,
                                                      failing_rows):
    # batches of 5 rows: the worker's shard has 3, this thread's 2. Either
    # one's error reaches the caller as itself, after both shards ended
    main, loss = threading.current_thread(), tr.composite_loss

    def failing(xhat, *args):
        if len(xhat.data) == failing_rows:
            raise error(f"raised on {threading.current_thread().name}")
        return loss(xhat, *args)

    monkeypatch.setattr(tr, "composite_loss", failing)
    monkeypatch.setattr(tr, "_workers", lambda: 2)
    before = threading.active_count()
    with pytest.raises(error) as exc:
        tr.train(_bundle(seed=53, counts=(10, 4, 4)), _net(seed=2),
                 tr.TrainConfig(epochs=2, batch_size=5))
    assert type(exc.value) is error
    if error is NumericalError:
        assert "epoch 0 step 0" in str(exc.value)
    on_main = f"raised on {main.name}" in str(exc.value)
    assert on_main == (failing_rows == 2)
    assert threading.active_count() == before


@pytest.mark.parametrize("lambda2", [0.0, 0.25])
@pytest.mark.parametrize("ablation", ["full", "no_mutual_attention",
                                      "no_wavelet_loss", "vanilla"])
def test_wavelet_term_bank_iff_weight(ablation, lambda2):
    cfg = m.ModelConfig(ablation=ablation)
    weight, bank = tr.wavelet_term(cfg, lambda2, (4, 8))
    assert weight == (lambda2 if cfg.uses_wavelet_loss else 0.0)
    assert (bank is None) == (weight == 0.0)
    if bank is not None:
        # the fixed bank of the scales: nothing in it is trained
        np.testing.assert_array_equal(bank.kernels,
                                      wavelet.build_bank((4, 8)).kernels)
        assert not bank.kernels.flags.writeable


def test_wavelet_term_refuses_bank_longer_than_signal():
    # reflect padding of K taps onto the 1600-sample signal needs K//2 < 1600
    cfg = m.ModelConfig()
    _, bank = tr.wavelet_term(cfg, 0.1, (799.75,))
    assert bank.kernels.shape[1] == 3199
    for scales in ((800,), (4, 1e12)):
        with pytest.raises(ConfigError):
            tr.wavelet_term(cfg, 0.1, scales)
    # variants without the wavelet term never build or check a bank
    assert tr.wavelet_term(m.ModelConfig(ablation="vanilla"), 0.1,
                           (1e12,)) == (0.0, None)


# --- scoring / threshold ------------------------------------------------------

def test_per_sample_losses_batch_invariant():
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16))
    a = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                             1.0, 0.1)
    b = [ev.score(net, snap, bundle.norm_stats, bank, 1.0, 0.1)
         for snap in bundle.test]
    np.testing.assert_allclose(a, b, atol=1e-10)
    assert np.all(a >= 0.0)


def test_per_sample_losses_match_dwt_definition():
    bundle = _bundle(seed=29, counts=(8, 4, 4))
    net = _net(seed=7)
    bank = wavelet.build_bank((4, 8, 16))
    got = tr.per_sample_losses(net, bundle.test, bundle.norm_stats, bank,
                               1.0, 0.1)
    target = sim.model_inputs(bundle.test, bundle.norm_stats)
    with ad.no_grad():
        recon = net.forward(target).data
    coeffs = (oracles.dwt(ad.Tensor(recon[:, None]), bank.kernels).data
              - oracles.dwt(ad.Tensor(target[:, None]), bank.kernels).data)
    want = (np.mean((recon - target) ** 2, axis=1)
            + 0.1 * 3 * np.mean(coeffs ** 2, axis=(1, 2, 3)))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_threshold_arithmetic_oracles():
    t = tr.threshold_from_losses([3.5, 3.5, 3.5])
    assert t.value == 3.5 and t.sigma == 0.0
    t = tr.threshold_from_losses([0.0, 2.0])
    assert abs(t.value - 2.0) < 1e-12
    assert t.mu == 1.0 and t.sigma == 1.0
    t = tr.threshold_from_losses([1.0, 2.0, 3.0])
    assert abs(t.value - (2.0 + math.sqrt(2.0 / 3.0))) < 1e-9
    assert round(t.value, 4) == 2.8165


def test_threshold_exactness_invariant():
    rng = np.random.default_rng(31)
    t = tr.threshold_from_losses(rng.uniform(0, 5, size=257))
    assert t.value == t.mu + t.sigma  # bitwise, not approximately


def test_calibrate_threshold_contract():
    bundle = _bundle(seed=37, counts=(8, 4, 4))
    net = _net(seed=8)
    th = tr.calibrate_threshold(net, bundle.validation, bundle.norm_stats,
                                None, 1.0, 0.0)
    assert th.value == th.mu + th.sigma
    with pytest.raises(ConfigError):
        tr.calibrate_threshold(net, [], bundle.norm_stats, None, 1.0, 0.0)
    with pytest.raises(ConfigError):
        tr.calibrate_threshold(net, bundle.test, bundle.norm_stats, None,
                               1.0, 0.0)
