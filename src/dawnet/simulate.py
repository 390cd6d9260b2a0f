"""Synthetic GSO-downlink snapshot generation.

A snapshot is one 10-second observation of a geostationary Ku-band carrier:
the received baseband waveform (desired QPSK stream + LEO interferers +
unit-variance noise), its Welch log-PSD, and an interference label derived
from the aggregate INR. Every snapshot is a pure function of (seed,
candidate index), so generation is deterministic and can be split across
workers without changing a single bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GenerationError, ShapeError

EARTH_RADIUS_M = 6_371_000.0
SPEED_OF_LIGHT_M_S = 299_792_458.0

# the paper's one downlink scenario: a Ku-band GSO carrier at 11.7 GHz and
# 40 MHz, three LEO interferers, carrier-to-noise and extra-loss ranges, the
# INR of the closest possible pass, and the aggregate INR that labels a
# snapshot as interfered
CARRIER_FREQ_HZ = 11.7e9
BANDWIDTH_HZ = 40e6
NUM_LEO = 3
CNR_RANGE_DB = (6.40, 15.40)
INR_PEAK_DB = 32.47
LINK_LOSS_RANGE_DB = (0.0, 9.0)
LABEL_INR_THRESHOLD_DB = 0.0
# time samples stored per snapshot, and bins of its PSD: the one width the
# dataset file and both model branches share
SNAPSHOT_LEN = 800
# samples synthesized per snapshot: 7 averaged PSD segments at 50% overlap
SYNTHESIS_LEN = 4 * SNAPSHOT_LEN

# geometry priors for the LEO population: altitude band and the lowest
# usable elevation
LEO_ALT_RANGE_M = (500_000.0, 2_000_000.0)
LEO_MIN_ELEVATION_DEG = 10.0
RX_GAIN_DB = 40.0
# probability that a LEO pass misses the band entirely, and the log-uniform
# window of the partial-overlap draw; chosen so labels come out near balanced
OVERLAP_ZERO_PROB = 0.5
OVERLAP_LOG10_MIN = -5.0
OVERLAP_LOG10_MAX = 0.0

PSD_FLOOR_DB = -300.0


# one labeled observation, as a numpy record. A split is an np.recarray of
# these rows, so split.label is the (N,) label column and split[i].label one
# row's label; inr_db is the aggregate over the LEO links, -inf if none is
# in band
SNAPSHOT = np.dtype((np.record, [("time_samples", "<c8", (SNAPSHOT_LEN,)),
                                 ("psd_db", "<f4", (SNAPSHOT_LEN,)),
                                 ("label", "<i8"), ("inr_db", "<f8"),
                                 ("cnr_db", "<f8")]))


@dataclass
class DatasetBundle:
    train: np.recarray
    validation: np.recarray
    test: np.recarray
    norm_stats: tuple          # (time_mean, time_std, psd_mean, psd_std)


def stack_rows(rows) -> np.recarray:
    """The split that holds copies of ``rows``, in order."""
    return np.array(rows, SNAPSHOT).view(np.recarray)


def fspl_db(distance_m: float, freq_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if distance_m <= 0.0:
        raise ConfigError(f"distance must be positive, got {distance_m}")
    if freq_hz <= 0.0:
        raise ConfigError(f"frequency must be positive, got {freq_hz}")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * freq_hz
                             / SPEED_OF_LIGHT_M_S)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ConfigError(f"cannot convert non-positive power {x} to dB")
    return 10.0 * math.log10(x)


def slant_range_m(altitude_m: float, elevation_deg: float) -> float:
    """Ground-station-to-satellite distance for a circular orbit."""
    if altitude_m <= 0:
        raise ConfigError("altitude must be positive")
    el = math.radians(elevation_deg)
    re = EARTH_RADIUS_M
    return math.sqrt((re + altitude_m) ** 2 - (re * math.cos(el)) ** 2) \
        - re * math.sin(el)


def leo_eirp_dbw() -> float:
    """EIRP such that the closest possible pass at full overlap and zero
    extra loss produces exactly the peak INR."""
    d_min = slant_range_m(LEO_ALT_RANGE_M[0], 90.0)
    return INR_PEAK_DB + fspl_db(d_min, CARRIER_FREQ_HZ) - RX_GAIN_DB


LEO_EIRP_DBW = leo_eirp_dbw()


def sample_leo_link(rng: np.random.Generator) -> tuple:
    """Draw one interferer: (in-band power over the unit noise floor,
    Doppler offset in Hz). Consumes exactly 6 uniforms.

    The power is the link budget EIRP + receive gain - path loss - extra
    loss, scaled by the fraction of the transmit power inside the victim's
    band: 0 for a pass whose beam misses the band.
    """
    altitude = rng.uniform(*LEO_ALT_RANGE_M)
    elevation = rng.uniform(LEO_MIN_ELEVATION_DEG, 90.0)
    u_overlap = rng.uniform()
    u_log = rng.uniform(OVERLAP_LOG10_MIN, OVERLAP_LOG10_MAX)
    overlap = 0.0 if u_overlap < OVERLAP_ZERO_PROB else 10.0 ** u_log
    add_loss = rng.uniform(*LINK_LOSS_RANGE_DB)
    doppler = rng.uniform(-0.1, 0.1) * BANDWIDTH_HZ
    path_loss = fspl_db(slant_range_m(altitude, elevation), CARRIER_FREQ_HZ)
    power = db_to_linear(LEO_EIRP_DBW + RX_GAIN_DB - path_loss - add_loss)
    return power * overlap, doppler


def _qpsk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-power QPSK at one sample per symbol with a random carrier phase."""
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    symbols = rng.integers(0, 4, size=n)
    # the four values the stream can take, each computed as the full-length
    # exp(1j * (phase0 + 0.5 * pi * symbol)) would compute it
    constellation = np.exp(1j * (phase0 + 0.5 * math.pi * np.arange(4)))
    return constellation[symbols]


def synthesize_waveform(cnr_db: float, per_leo, rng: np.random.Generator,
                        num_samples: int = SNAPSHOT_LEN,
                        include_noise: bool = True) -> np.ndarray:
    """Received complex baseband per the additive interference model.

    y[n] = x[n] sqrt(CNR) + sum_k I_k[n] exp(j 2 pi df_k n / f_s) sqrt(INR_k)
           + noise[n]

    Args:
        cnr_db: carrier-to-noise ratio; -inf switches the carrier off.
        per_leo: (inr_db, doppler_offset_hz) of each LEO, in draw order.
        rng: consumed in a fixed order (carrier, each LEO, noise).
        num_samples: waveform length (PSD synthesis, Monte-Carlo power
            checks).
        include_noise: drop the additive noise term (unit tests only).
    """
    n = int(num_samples)
    if n <= 0:
        raise ConfigError("sample count must be positive")
    cnr_lin = 0.0 if cnr_db == float("-inf") else db_to_linear(cnr_db)
    y = _qpsk(rng, n) * math.sqrt(cnr_lin)
    t = np.arange(n, dtype=np.float64)
    for inr_db, doppler_hz in per_leo:
        stream = _qpsk(rng, n)
        if inr_db == float("-inf"):
            # zero power: the stream is drawn to keep the RNG order, and
            # adding it times 0 would leave y as it is
            continue
        rotation = np.exp(2j * math.pi * doppler_hz * t / BANDWIDTH_HZ)
        y = y + stream * rotation * math.sqrt(db_to_linear(inr_db))
    if include_noise:
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
        y = y + noise
    return y


def welch_psd_db(y: np.ndarray, fft_bins: int) -> np.ndarray:
    """Averaged-periodogram PSD in dB: Hann window, 50% overlap.

    The segment length equals fft_bins, the window is the periodic Hann, and
    the density normalization uses a unit sample rate. Bins are in FFT order
    (DC first). Power is floored at PSD_FLOOR_DB, so an all-zero input comes
    out at exactly -300 dB. All segments go through one FFT call, and their
    powers are summed in segment order.
    """
    y = np.asarray(y)
    n = y.shape[0]
    seg = int(fft_bins)
    if seg <= 0:
        raise ConfigError("fft_bins must be positive")
    if n < seg:
        raise ShapeError(f"need at least {seg} samples, got {n}")
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    norm = np.sum(window * window)
    segments = sliding_window_view(y, seg)[::seg // 2]
    spectra = np.fft.fft(segments * window, axis=1)
    power = spectra.real ** 2 + spectra.imag ** 2
    acc = power[0].copy()
    for p in power[1:]:
        acc += p
    psd = acc / (len(power) * norm)
    return 10.0 * np.log10(np.maximum(psd, 10.0 ** (PSD_FLOOR_DB / 10.0)))


def _draw_links(seed: int, index: int) -> tuple:
    """The draws that label candidate ``index``, before its waveform.

    Returns (rng, cnr_db, per_leo, inr_db): the candidate's RNG, keyed on
    (seed, index) and positioned after the GSO loss and the LEO links, the
    carrier's CNR, each link's (INR dB, Doppler Hz) in draw order as
    :func:`synthesize_waveform` takes them, and their aggregate INR. An INR
    is -inf for no power in band.
    """
    if index < 0:
        raise ConfigError("candidate index must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))

    # wanted carrier: extra loss eats into the zero-loss (maximum) CNR,
    # rescaled so the loss range spans the CNR range
    llo, lhi = LINK_LOSS_RANGE_DB
    clo, chi = CNR_RANGE_DB
    add_loss = rng.uniform(llo, lhi)
    cnr_db = chi - (add_loss - llo) * (chi - clo) / (lhi - llo)

    links = [sample_leo_link(rng) for _ in range(NUM_LEO)]
    per_leo = [(_power_db(p), doppler) for p, doppler in links]
    return rng, cnr_db, per_leo, _power_db(float(sum(p for p, _ in links)))


def _power_db(p: float) -> float:
    return linear_to_db(p) if p > 0 else float("-inf")


def _label(inr_db: float) -> int:
    return int(inr_db >= LABEL_INR_THRESHOLD_DB)


def generate_snapshot(seed: int, index: int, draws=None) -> np.record:
    """Deterministic snapshot for one candidate index.

    The RNG stream is keyed on (seed, index); draws happen in a fixed order
    (GSO loss, the LEO links, waveform), so snapshot i is identical no
    matter which worker produced it. ``draws`` is what
    ``_draw_links(seed, index)`` returned, for a caller that labelled the
    candidate already; its RNG is consumed. Returns one ``SNAPSHOT`` row,
    whose arrays are rounded to 32-bit floats, making the in-memory bundle
    bit-identical to a file round-trip.
    """
    if draws is None:
        draws = _draw_links(seed, index)
    rng, cnr_db, per_leo, inr_db = draws
    y = synthesize_waveform(cnr_db, per_leo, rng, num_samples=SYNTHESIS_LEN)
    psd = welch_psd_db(y, SNAPSHOT_LEN)

    return np.array((y[:SNAPSHOT_LEN], psd, _label(inr_db), inr_db, cnr_db),
                    SNAPSHOT)[()]


def amplitude(split) -> np.ndarray:
    """(N, SNAPSHOT_LEN) float64 |y[n]| matrix."""
    return np.abs(split.time_samples).astype(np.float64)


def psd_matrix(split) -> np.ndarray:
    return split.psd_db.astype(np.float64)


def normalization_stats(train) -> tuple:
    """Per-domain (mean, population std) over the training split only."""
    if len(train) == 0:
        raise ConfigError("cannot compute stats from an empty training split")
    amp = amplitude(train)
    psd = psd_matrix(train)
    tm, ts = float(amp.mean()), float(amp.std())
    pm, ps = float(psd.mean()), float(psd.std())
    if ts == 0.0 or ps == 0.0:
        raise ConfigError("degenerate training split: zero variance")
    return (tm, ts, pm, ps)


def model_inputs(split, norm_stats) -> tuple:
    """Normalized (N, L) amplitude and PSD rows ready for the model; a
    batch's (B, 2L) reconstruction target is its rows of both,
    concatenated."""
    tm, ts, pm, ps = norm_stats
    return (amplitude(split) - tm) / ts, (psd_matrix(split) - pm) / ps


RETRY_FACTOR = 20


def generate_dataset(seed: int, counts) -> DatasetBundle:
    """Assemble splits by walking the candidate stream in index order.

    Label-0 candidates fill train, then validation, then the clean half of
    the test split; label-1 candidates fill the interference half. Each
    candidate is labelled from its link draws alone, and only those a quota
    still needs are synthesized. Raises when the candidate budget
    (RETRY_FACTOR times the total requested) runs out before every quota is
    met.
    """
    n_train, n_val, n_test_pc = (int(c) for c in counts)
    if n_train <= 0 or n_val <= 0 or n_test_pc <= 0:
        raise ConfigError(f"counts must be positive, got {counts}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    need0 = n_train + n_val + n_test_pc
    need1 = n_test_pc
    budget = RETRY_FACTOR * (need0 + need1)

    clean, interfered = [], []
    index = 0
    while (len(clean) < need0 or len(interfered) < need1) and index < budget:
        draws = _draw_links(seed, index)
        label = _label(draws[3])
        if label == 0 and len(clean) < need0:
            clean.append(generate_snapshot(seed, index, draws))
        elif label == 1 and len(interfered) < need1:
            interfered.append(generate_snapshot(seed, index, draws))
        index += 1
    if len(clean) < need0 or len(interfered) < need1:
        raise GenerationError(
            f"candidate budget {budget} exhausted: got {len(clean)}/{need0} "
            f"clean and {len(interfered)}/{need1} interfered snapshots")

    # one copy per split, so that each owns its rows; the rows are freed
    # before the statistics take their own copies
    train = stack_rows(clean[:n_train])
    val = stack_rows(clean[n_train:n_train + n_val])
    test = stack_rows(clean[n_train + n_val:need0] + interfered)
    del clean, interfered
    return DatasetBundle(train=train, validation=val, test=test,
                         norm_stats=normalization_stats(train))
