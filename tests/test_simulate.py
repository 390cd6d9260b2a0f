"""Waveform synthesis, Welch PSD, and dataset assembly oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawnet import simulate as sim
from dawnet.errors import ConfigError, GenerationError, ShapeError


# --- validation ---------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        sim.generate_dataset(-4, (1, 1, 1))


def test_slant_range_overhead_pass():
    # straight overhead the slant range is exactly the altitude
    assert abs(sim.slant_range_m(500e3, 90.0) - 500e3) < 1e-3
    # at lower elevation the path is longer
    assert sim.slant_range_m(500e3, 10.0) > 500e3


# --- link budget -------------------------------------------------------------

def test_fspl_geo_ku_band():
    # 36,000 km slant range at 11.7 GHz
    assert abs(sim.fspl_db(36_000_000.0, 11.7e9) - 204.94) <= 0.01


def test_fspl_unity_point():
    # d = c/(4 pi) at 1 Hz makes the argument 1, so the loss is 0 dB
    d = sim.SPEED_OF_LIGHT_M_S / (4.0 * math.pi)
    assert abs(sim.fspl_db(d, 1.0)) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.floats(1e3, 1e8), st.floats(1e6, 1e12))
def test_fspl_doubling_adds_6db(d, f):
    delta = sim.fspl_db(2.0 * d, f) - sim.fspl_db(d, f)
    assert abs(delta - 20.0 * math.log10(2.0)) < 1e-9
    assert abs(delta - 6.0206) < 1e-3


def test_fspl_domain_errors():
    with pytest.raises(ConfigError):
        sim.fspl_db(0.0, 1e9)
    with pytest.raises(ConfigError):
        sim.fspl_db(-5.0, 1e9)
    with pytest.raises(ConfigError):
        sim.fspl_db(1e6, 0.0)


def test_db_round_trip():
    for x in (1e-12, 0.5, 1.0, 42.0):
        assert abs(sim.db_to_linear(sim.linear_to_db(x)) - x) < 1e-9 * x
    with pytest.raises(ConfigError):
        sim.linear_to_db(0.0)


def _budget_link(rng):
    # one LEO's in-band power from its six uniforms, as the link budget
    # states it: EIRP + receive gain - path loss - extra loss, in dB, then
    # scaled by the in-band fraction
    altitude = rng.uniform(*sim.LEO_ALT_RANGE_M)
    elevation = rng.uniform(sim.LEO_MIN_ELEVATION_DEG, 90.0)
    u_overlap = rng.uniform()
    u_log = rng.uniform(sim.OVERLAP_LOG10_MIN, sim.OVERLAP_LOG10_MAX)
    add_loss = rng.uniform(*sim.LINK_LOSS_RANGE_DB)
    doppler = rng.uniform(-0.1, 0.1) * sim.BANDWIDTH_HZ
    overlap = 0.0 if u_overlap < sim.OVERLAP_ZERO_PROB else 10.0 ** u_log
    fspl = sim.fspl_db(sim.slant_range_m(altitude, elevation),
                       sim.CARRIER_FREQ_HZ)
    power = sim.db_to_linear(sim.LEO_EIRP_DBW + sim.RX_GAIN_DB - fspl
                             - add_loss) * overlap
    return power, doppler


def test_leo_links_match_the_budget_bitwise():
    out_of_band = 0
    for index in range(200):
        rng, cnr_db, per_leo, inr_db = sim._draw_links(4, index)
        twin = np.random.default_rng(np.random.SeedSequence([4, index]))
        again = np.random.default_rng(np.random.SeedSequence([4, index]))
        twin.uniform(*sim.LINK_LOSS_RANGE_DB)      # the GSO carrier's loss
        again.uniform(*sim.LINK_LOSS_RANGE_DB)
        links = [_budget_link(twin) for _ in range(sim.NUM_LEO)]
        drawn = [sim.sample_leo_link(again) for _ in range(sim.NUM_LEO)]
        assert np.array(drawn).tobytes() == np.array(links).tobytes()
        total = 0.0
        for (power, doppler), (link_db, shift) in zip(links, per_leo):
            total = total + power
            assert shift == doppler
            if power == 0.0:
                out_of_band += 1
                assert link_db == float("-inf")
            else:
                assert link_db == sim.linear_to_db(power)
        assert inr_db == (sim.linear_to_db(total) if total > 0
                          else float("-inf"))
        # the candidate's RNG is left where the waveform draws start
        assert rng.uniform() == twin.uniform() == again.uniform()
    assert 0 < out_of_band < 200 * sim.NUM_LEO


# --- waveform synthesis ------------------------------------------------------

def test_waveform_carrier_only_exact():
    rng = np.random.default_rng(0)
    y = sim.synthesize_waveform(20.0, [], rng, include_noise=False)
    assert y.shape == (sim.SNAPSHOT_LEN,)
    np.testing.assert_allclose(np.abs(y), math.sqrt(100.0), atol=1e-12)


def test_waveform_zero_doppler_is_pure_sum():
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    ya = sim.synthesize_waveform(float("-inf"), [(0.0, 0.0)], rng_a,
                                 include_noise=False)
    # same stream drawn manually: carrier consumed first even at zero power
    _ = sim._qpsk(rng_b, sim.SNAPSHOT_LEN)
    stream = sim._qpsk(rng_b, sim.SNAPSHOT_LEN)
    np.testing.assert_allclose(ya, stream, atol=1e-12)


def test_waveform_power_monte_carlo():
    # 1 LEO at 10 dB, carrier off, noise on: mean |y|^2 ~ 1 + 10
    rng = np.random.default_rng(123)
    y = sim.synthesize_waveform(float("-inf"), [(10.0, 1e5)], rng,
                                num_samples=100_000)
    power = float(np.mean(np.abs(y) ** 2))
    assert abs(power - 11.0) / 11.0 < 0.05


def test_waveform_full_budget_monte_carlo():
    # noise + carrier + 2 links: mean |y|^2 ~ 1 + CNR + sum INR within 5%
    rng = np.random.default_rng(77)
    cnr_db, inrs = 9.0, [(6.0, 2e5), (12.0, -3e5)]
    y = sim.synthesize_waveform(cnr_db, inrs, rng, num_samples=100_000)
    expected = 1.0 + sim.db_to_linear(cnr_db) + sum(sim.db_to_linear(i)
                                                    for i, _ in inrs)
    power = float(np.mean(np.abs(y) ** 2))
    assert abs(power - expected) / expected < 0.05


def _qpsk_exp(rng, n):
    # the full-length formula: one complex exp per symbol
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    symbols = rng.integers(0, 4, size=n)
    return np.exp(1j * (phase0 + 0.5 * math.pi * symbols))


def test_qpsk_matches_full_length_exp():
    for seed in range(60):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        a = sim._qpsk(rng_a, sim.SYNTHESIS_LEN)
        b = _qpsk_exp(rng_b, sim.SYNTHESIS_LEN)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert rng_a.uniform() == rng_b.uniform()


def _waveform_all_links(cnr_db, per_leo, rng, n):
    # every interferer rotated and added, a -inf one at zero power
    y = _qpsk_exp(rng, n) * math.sqrt(0.0 if cnr_db == float("-inf")
                                      else sim.db_to_linear(cnr_db))
    t = np.arange(n, dtype=np.float64)
    for inr_db, doppler_hz in per_leo:
        inr_lin = (0.0 if inr_db == float("-inf")
                   else sim.db_to_linear(inr_db))
        stream = _qpsk_exp(rng, n)
        rotation = np.exp(2j * math.pi * doppler_hz * t / sim.BANDWIDTH_HZ)
        y = y + stream * rotation * math.sqrt(inr_lin)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        / math.sqrt(2.0)
    return y + noise


def test_silent_interferer_matches_adding_it_at_zero_power():
    off = float("-inf")
    cases = [
        (9.0, [(off, 3e6)]),
        (12.0, [(off, -2e6), (4.0, 1e6), (off, 3.5e6)]),
        (off, [(off, 1e5), (off, -1e5), (off, 0.0)]),
        (6.4, [(20.0, 2e6), (off, 0.0), (-3.0, -4e6)]),
    ]
    for seed in range(12):
        for cnr_db, per_leo in cases:
            a = sim.synthesize_waveform(cnr_db, per_leo,
                                        np.random.default_rng(seed),
                                        num_samples=sim.SYNTHESIS_LEN)
            b = _waveform_all_links(cnr_db, per_leo,
                                    np.random.default_rng(seed),
                                    sim.SYNTHESIS_LEN)
            assert a.tobytes() == b.tobytes()


# --- Welch PSD ---------------------------------------------------------------

def test_welch_tone_lands_in_predicted_bin():
    n, bins = 3200, 800
    for m in (3, 100, 421, 799):
        tone = np.exp(2j * np.pi * m * np.arange(n) / bins)
        psd = sim.welch_psd_db(tone, bins)
        assert int(np.argmax(psd)) == m


def test_welch_amplitude_shift():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(3200) + 1j * rng.standard_normal(3200)
    base = sim.welch_psd_db(y, 800)
    shifted = sim.welch_psd_db(10.0 * y, 800)
    np.testing.assert_allclose(shifted - base, 20.0, atol=1e-9)


def test_welch_zero_floor():
    psd = sim.welch_psd_db(np.zeros(3200, dtype=complex), 800)
    np.testing.assert_array_equal(psd, np.full(800, -300.0))


def test_welch_rejects_short_input():
    with pytest.raises(ShapeError):
        sim.welch_psd_db(np.zeros(799, dtype=complex), 800)


def test_welch_averages_seven_segments():
    # 3200 samples, segment 800, 50% overlap -> starts 0,400,...,2400
    starts = list(range(0, 3200 - 800 + 1, 400))
    assert len(starts) == 7


def _welch_per_segment(y, seg):
    # one FFT per segment, powers summed in segment order
    n = y.shape[0]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    norm = np.sum(window * window)
    acc = np.zeros(seg, dtype=np.float64)
    count = 0
    for start in range(0, n - seg + 1, seg // 2):
        spectrum = np.fft.fft(y[start:start + seg] * window)
        acc += (spectrum.real ** 2 + spectrum.imag ** 2)
        count += 1
    psd = acc / (count * norm)
    return 10.0 * np.log10(np.maximum(psd, 1e-30))


@pytest.mark.parametrize("n,seg", [(3200, 800), (3201, 800), (800, 800),
                                   (1999, 800), (1000, 64), (50, 7)])
def test_welch_matches_per_segment_loop(n, seg):
    rng = np.random.default_rng(n * 1000 + seg)
    for y in (rng.standard_normal(n) + 1j * rng.standard_normal(n),
              rng.standard_normal(n),
              np.zeros(n, dtype=complex)):
        assert sim.welch_psd_db(y, seg).tobytes() \
            == _welch_per_segment(y, seg).tobytes()
    for seed in range(8):
        y = sim.synthesize_waveform(9.0, [(2.0, 1e6)],
                                    np.random.default_rng(seed), num_samples=n)
        assert sim.welch_psd_db(y, seg).tobytes() \
            == _welch_per_segment(y, seg).tobytes()


# --- snapshots and datasets --------------------------------------------------

def test_snapshot_deterministic_and_pure():
    a = sim.generate_snapshot(9, 17)
    b = sim.generate_snapshot(9, 17)
    np.testing.assert_array_equal(a.time_samples, b.time_samples)
    np.testing.assert_array_equal(a.psd_db, b.psd_db)
    assert (a.label, a.inr_db, a.cnr_db) == (b.label, b.inr_db, b.cnr_db)
    c = sim.generate_snapshot(9, 18)
    assert not np.array_equal(a.time_samples, c.time_samples)


def test_snapshot_label_rule():
    for i in range(200):
        s = sim.generate_snapshot(5, i)
        assert s.label == int(s.inr_db >= sim.LABEL_INR_THRESHOLD_DB)
        assert s.time_samples.shape == (800,)
        assert s.psd_db.shape == (800,)
        assert s.time_samples.dtype == np.complex64
        assert s.psd_db.dtype == np.float32


def test_snapshot_cnr_in_range():
    lo, hi = sim.CNR_RANGE_DB
    for i in range(100):
        s = sim.generate_snapshot(6, i)
        assert lo - 1e-9 <= s.cnr_db <= hi + 1e-9


def test_dataset_contract():
    bundle = sim.generate_dataset(21, (100, 20, 50))
    assert len(bundle.train) == 100
    assert len(bundle.validation) == 20
    assert len(bundle.test) == 100
    assert all(s.label == 0 for s in bundle.train)
    assert all(s.label == 0 for s in bundle.validation)
    assert sum(s.label for s in bundle.test) == 50


def test_dataset_deterministic():
    a = sim.generate_dataset(33, (30, 10, 10))
    b = sim.generate_dataset(33, (30, 10, 10))
    assert a.norm_stats == b.norm_stats
    for sa, sb in zip([*a.train, *a.validation, *a.test],
                      [*b.train, *b.validation, *b.test]):
        np.testing.assert_array_equal(sa.time_samples, sb.time_samples)
        np.testing.assert_array_equal(sa.psd_db, sb.psd_db)
        assert (sa.label, sa.inr_db, sa.cnr_db) == (sb.label, sb.inr_db, sb.cnr_db)


def test_dataset_normalization_invariant():
    bundle = sim.generate_dataset(2, (60, 12, 12))
    x = sim.model_inputs(bundle.train, bundle.norm_stats)
    amp, psd = x[:, :sim.SNAPSHOT_LEN], x[:, sim.SNAPSHOT_LEN:]
    assert abs(amp.mean()) < 1e-6 and abs(amp.std() - 1.0) < 1e-6
    assert abs(psd.mean()) < 1e-6 and abs(psd.std() - 1.0) < 1e-6


def _walk_every_candidate(seed, counts):
    # synthesize each candidate, then keep it if its quota is open
    n_train, n_val, n_test_pc = counts
    need0, need1 = n_train + n_val + n_test_pc, n_test_pc
    clean, interfered = [], []
    index = 0
    while len(clean) < need0 or len(interfered) < need1:
        snap = sim.generate_snapshot(seed, index)
        if snap.label == 0 and len(clean) < need0:
            clean.append(snap)
        elif snap.label == 1 and len(interfered) < need1:
            interfered.append(snap)
        index += 1
    return clean, interfered, snap.label


def _same_snapshot(a, b):
    return (a.time_samples.tobytes() == b.time_samples.tobytes()
            and a.psd_db.tobytes() == b.psd_db.tobytes()
            and (a.label, a.inr_db, a.cnr_db) == (b.label, b.inr_db, b.cnr_db))


# the walk ends on a clean candidate when the interfered quota fills first,
# and on an interfered one when the clean quota does
@pytest.mark.parametrize("seed,counts,last_label", [
    (8, (30, 10, 2), 0), (8, (1, 1, 30), 1), (0, (16, 4, 8), 0),
    (7100004, (1, 2, 24), 1)])
def test_dataset_matches_walk_over_every_candidate(seed, counts, last_label):
    clean, interfered, last = _walk_every_candidate(seed, counts)
    assert last == last_label
    bundle = sim.generate_dataset(seed, counts)
    made = [*bundle.train, *bundle.validation, *bundle.test]
    assert len(made) == len(clean) + len(interfered)
    assert all(map(_same_snapshot, made, clean + interfered))
    assert bundle.norm_stats == sim.normalization_stats(
        sim.stack_rows(clean[:counts[0]]))


def test_dataset_synthesizes_only_kept_candidates(monkeypatch):
    calls = []
    generate = sim.generate_snapshot

    def counted(seed, index, *draws):
        calls.append(index)
        return generate(seed, index, *draws)

    monkeypatch.setattr(sim, "generate_snapshot", counted)
    for seed, counts in ((8, (30, 10, 2)), (8, (1, 1, 30))):
        calls.clear()
        bundle = sim.generate_dataset(seed, counts)
        kept = len(bundle.train) + len(bundle.validation) + len(bundle.test)
        assert len(calls) == kept == sum(counts) + counts[2]
        assert calls == sorted(set(calls))


def _python(code):
    """The stdout of ``code`` run by a fresh interpreter that imports
    dawnet from this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_generate_dataset_holds_each_split_once():
    # the kept rows go straight into their split; on top of the splits the
    # statistics hold one float64 column of the training split. The first
    # call is traced in a fresh interpreter: in this one, the trace would
    # also take in the interpreter's own tables (its interned strings) if
    # they happened to grow then, at a moment set by the tests run before.
    # numpy's lazily loaded submodules are imported before the trace
    peak, splits, train = map(int, _python(
        "import tracemalloc\n"
        "import numpy.fft, numpy.random\n"
        "from dawnet import simulate as sim\n"
        "tracemalloc.start()\n"
        "bundle = sim.generate_dataset(4, (16, 16, 150))\n"
        "print(tracemalloc.get_traced_memory()[1], sum(split.nbytes for split"
        " in (bundle.train, bundle.validation, bundle.test)),"
        " len(bundle.train))").split())
    assert splits == 332 * sim.SNAPSHOT.itemsize
    column = train * sim.SNAPSHOT_LEN * 8
    assert peak <= splits + column + 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_normalization_stats_are_numpy_mean_and_std():
    # the statistics reuse each column copy as their scratch; the numbers
    # are bitwise the ones np.mean and np.std give
    train = sim.generate_dataset(6, (40, 1, 1)).train
    amp = np.abs(train.time_samples).astype(np.float64)
    np.testing.assert_array_equal(sim.amplitude(train), amp)
    psd = train.psd_db.astype(np.float64)
    want = (amp.mean(), amp.std(), psd.mean(), psd.std())
    assert sim.normalization_stats(train) == tuple(map(float, want))


def test_dataset_unsatisfiable_quota_raises(monkeypatch):
    # threshold none of the candidates can reach -> no label-1 snapshots
    monkeypatch.setattr(sim, "LABEL_INR_THRESHOLD_DB", 150.0)
    with pytest.raises(GenerationError):
        sim.generate_dataset(4, (2, 1, 1))


def test_dataset_rejects_bad_counts():
    with pytest.raises(ConfigError):
        sim.generate_dataset(0, (0, 1, 1))


def test_import_leaves_numpy_random_unloaded():
    # the generator annotations are strings, so a command that draws
    # nothing, such as eval, never imports numpy.random (10-17 ms)
    out = _python("import sys, dawnet; print('numpy.random' in sys.modules)")
    assert out.strip() == "False"
