"""Synthetic GSO-downlink snapshot generation.

A snapshot is one 10-second observation of a geostationary Ku-band carrier:
the received baseband waveform (desired QPSK stream + up to K LEO
interferers + unit-variance noise), its Welch log-PSD, and an interference
label derived from the aggregate INR. Every snapshot is a pure function of
(config, candidate index), so generation is deterministic and can be split
across workers without changing a single bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linkbudget as lb
from .errors import ConfigError, GenerationError, ShapeError

EARTH_RADIUS_M = 6_371_000.0

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical and bookkeeping constants for one dataset."""

    carrier_freq_gso: float = 11.7e9
    bandwidth: float = 40e6
    sample_count: int = 800
    fft_bins: int = 800
    num_leo: int = 3
    cnr_range_db: tuple = (6.40, 15.40)
    inr_peak_db: float = 32.47
    link_loss_range_db: tuple = (0.0, 9.0)
    label_inr_threshold_db: float = 0.0
    snapshot_interval_s: float = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.carrier_freq_gso <= 0 or self.bandwidth <= 0:
            raise ConfigError("carrier frequency and bandwidth must be positive")
        if self.sample_count <= 0 or self.fft_bins <= 0:
            raise ConfigError("sample_count and fft_bins must be positive")
        if self.num_leo < 0:
            raise ConfigError("num_leo must be >= 0")
        lo, hi = self.cnr_range_db
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad cnr_range_db: {self.cnr_range_db}")
        llo, lhi = self.link_loss_range_db
        if not (math.isfinite(llo) and math.isfinite(lhi) and 0 <= llo <= lhi):
            raise ConfigError(f"bad link_loss_range_db: {self.link_loss_range_db}")
        if not math.isfinite(self.inr_peak_db):
            raise ConfigError("inr_peak_db must be finite")
        if not math.isfinite(self.label_inr_threshold_db):
            raise ConfigError("label_inr_threshold_db must be finite")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")

    def to_dict(self) -> dict:
        return {
            "carrier_freq_gso": self.carrier_freq_gso,
            "bandwidth": self.bandwidth,
            "sample_count": self.sample_count,
            "fft_bins": self.fft_bins,
            "num_leo": self.num_leo,
            "cnr_range_db": list(self.cnr_range_db),
            "inr_peak_db": self.inr_peak_db,
            "link_loss_range_db": list(self.link_loss_range_db),
            "label_inr_threshold_db": self.label_inr_threshold_db,
            "snapshot_interval_s": self.snapshot_interval_s,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        for key in ("cnr_range_db", "link_loss_range_db"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass
class Snapshot:
    """One labeled observation."""

    time_samples: np.ndarray   # complex64, length sample_count
    psd_db: np.ndarray         # float32, length fft_bins
    label: int
    inr_db: float              # aggregate over LEO links; -inf if none in band
    cnr_db: float


@dataclass
class DatasetBundle:
    train: list
    validation: list
    test: list
    norm_stats: tuple          # (time_mean, time_std, psd_mean, psd_std)
    config: ScenarioConfig = field(default=None)


def slant_range_m(altitude_m: float, elevation_deg: float) -> float:
    """Ground-station-to-satellite distance for a circular orbit."""
    if altitude_m <= 0:
        raise ConfigError("altitude must be positive")
    el = math.radians(elevation_deg)
    re = EARTH_RADIUS_M
    return math.sqrt((re + altitude_m) ** 2 - (re * math.cos(el)) ** 2) \
        - re * math.sin(el)


def leo_eirp_dbw(config: ScenarioConfig) -> float:
    """EIRP such that the closest possible pass at full overlap and zero
    extra loss produces exactly the configured peak INR."""
    d_min = slant_range_m(LEO_ALT_RANGE_M[0], 90.0)
    return config.inr_peak_db + lb.fspl_db(d_min, config.carrier_freq_gso) \
        - RX_GAIN_DB


def sample_leo_link(config: ScenarioConfig, rng: np.random.Generator
                    ) -> "lb.LinkGeometry":
    """Draw one interferer's geometry. Consumes exactly 6 uniforms."""
    altitude = rng.uniform(*LEO_ALT_RANGE_M)
    elevation = rng.uniform(LEO_MIN_ELEVATION_DEG, 90.0)
    u_overlap = rng.uniform()
    u_log = rng.uniform(OVERLAP_LOG10_MIN, OVERLAP_LOG10_MAX)
    overlap = 0.0 if u_overlap < OVERLAP_ZERO_PROB else 10.0 ** u_log
    add_loss = rng.uniform(*config.link_loss_range_db)
    doppler = rng.uniform(-0.1, 0.1) * config.bandwidth
    return lb.LinkGeometry(
        eirp_dbw=leo_eirp_dbw(config),
        rx_gain_db=RX_GAIN_DB,
        fspl_db=lb.fspl_db(slant_range_m(altitude, elevation),
                           config.carrier_freq_gso),
        add_loss_db=add_loss,
        spectral_overlap=overlap,
        doppler_offset_hz=doppler,
    )


def _qpsk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-power QPSK at one sample per symbol with a random carrier phase."""
    phase0 = rng.uniform(0.0, 2.0 * math.pi)
    symbols = rng.integers(0, 4, size=n)
    return np.exp(1j * (phase0 + 0.5 * math.pi * symbols))


def synthesize_waveform(config: ScenarioConfig, cnr_db: float, per_leo,
                        rng: np.random.Generator, num_samples: int = None,
                        include_noise: bool = True) -> np.ndarray:
    """Received complex baseband per the additive interference model.

    y[n] = x[n] sqrt(CNR) + sum_k I_k[n] exp(j 2 pi df_k n / f_s) sqrt(INR_k)
           + noise[n]

    Args:
        cnr_db: carrier-to-noise ratio; -inf switches the carrier off.
        per_leo: list of (inr_db, doppler_offset_hz), one entry per LEO.
        rng: consumed in a fixed order (carrier, each LEO, noise).
        num_samples: override the config sample count (PSD averaging,
            Monte-Carlo power checks).
        include_noise: drop the additive noise term (unit tests only).
    """
    per_leo = list(per_leo)
    if len(per_leo) != config.num_leo:
        raise ConfigError(
            f"expected {config.num_leo} LEO entries, got {len(per_leo)}")
    n = config.sample_count if num_samples is None else int(num_samples)
    if n <= 0:
        raise ConfigError("sample count must be positive")
    cnr_lin = 0.0 if cnr_db == float("-inf") else lb.db_to_linear(cnr_db)
    y = _qpsk(rng, n) * math.sqrt(cnr_lin)
    t = np.arange(n, dtype=np.float64)
    for inr_db, doppler_hz in per_leo:
        inr_lin = 0.0 if inr_db == float("-inf") else lb.db_to_linear(inr_db)
        stream = _qpsk(rng, n)
        rotation = np.exp(2j * math.pi * doppler_hz * t / config.bandwidth)
        y = y + stream * rotation * math.sqrt(inr_lin)
    if include_noise:
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            / math.sqrt(2.0)
        y = y + noise
    return y


def welch_psd_db(y: np.ndarray, fft_bins: int) -> np.ndarray:
    """Averaged-periodogram PSD in dB: Hann window, 50% overlap.

    The segment length equals fft_bins, the window is the periodic Hann, and
    the density normalization uses a unit sample rate. Bins are in FFT order
    (DC first). Power below 1e-30 is floored, so an all-zero input comes out
    at exactly -300 dB.
    """
    y = np.asarray(y)
    n = y.shape[0]
    seg = int(fft_bins)
    if seg <= 0:
        raise ConfigError("fft_bins must be positive")
    if n < seg:
        raise ShapeError(f"need at least {seg} samples, got {n}")
    step = seg // 2
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(seg) / seg)
    norm = np.sum(window * window)
    acc = np.zeros(seg, dtype=np.float64)
    count = 0
    for start in range(0, n - seg + 1, step):
        spectrum = np.fft.fft(y[start:start + seg] * window)
        acc += (spectrum.real ** 2 + spectrum.imag ** 2)
        count += 1
    psd = acc / (count * norm)
    return 10.0 * np.log10(np.maximum(psd, 1e-30))


def _synthesis_length(config: ScenarioConfig) -> int:
    # enough for 7 averaged segments at 50% overlap, never less than the
    # stored waveform itself
    return max(config.sample_count, 4 * config.fft_bins)


def generate_snapshot(config: ScenarioConfig, index: int) -> Snapshot:
    """Deterministic snapshot for one candidate index.

    The RNG stream is keyed on (rng_seed, index); draws happen in a fixed
    order (GSO loss, K LEO links, waveform), so snapshot i is identical no
    matter which worker produced it. Stored arrays are rounded to 32-bit
    floats here, making the in-memory bundle bit-identical to a file
    round-trip.
    """
    if index < 0:
        raise ConfigError("candidate index must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, index]))

    # wanted carrier: extra loss eats into the zero-loss (maximum) CNR,
    # rescaled so the configured loss range spans the configured CNR range
    llo, lhi = config.link_loss_range_db
    clo, chi = config.cnr_range_db
    add_loss = rng.uniform(llo, lhi)
    loss_span = lhi - llo
    if loss_span > 0:
        cnr_db = chi - (add_loss - llo) * (chi - clo) / loss_span
    else:
        cnr_db = chi

    links = [sample_leo_link(config, rng) for _ in range(config.num_leo)]
    inr_lin = lb.aggregate_interference(links)
    inr_db = lb.linear_to_db(inr_lin) if inr_lin > 0 else float("-inf")
    label = int(inr_db >= config.label_inr_threshold_db)

    per_leo = []
    for lk in links:
        p = lb.interference_power(lk)
        link_inr_db = lb.linear_to_db(p) if p > 0 else float("-inf")
        per_leo.append((link_inr_db, lk.doppler_offset_hz))

    y = synthesize_waveform(config, cnr_db, per_leo, rng,
                            num_samples=_synthesis_length(config))
    psd = welch_psd_db(y, config.fft_bins)

    time_samples = y[:config.sample_count].astype(np.complex64)
    return Snapshot(
        time_samples=time_samples,
        psd_db=psd.astype(np.float32),
        label=label,
        inr_db=inr_db,
        cnr_db=cnr_db,
    )


def amplitude(snapshots) -> np.ndarray:
    """(N, sample_count) float64 |y[n]| matrix."""
    return np.stack([np.abs(s.time_samples).astype(np.float64)
                     for s in snapshots])


def psd_matrix(snapshots) -> np.ndarray:
    return np.stack([s.psd_db.astype(np.float64) for s in snapshots])


def normalization_stats(train) -> tuple:
    """Per-domain (mean, population std) over the training split only."""
    if not train:
        raise ConfigError("cannot compute stats from an empty training split")
    amp = amplitude(train)
    psd = psd_matrix(train)
    tm, ts = float(amp.mean()), float(amp.std())
    pm, ps = float(psd.mean()), float(psd.std())
    if ts == 0.0 or ps == 0.0:
        raise ConfigError("degenerate training split: zero variance")
    return (tm, ts, pm, ps)


def model_inputs(snapshots, norm_stats) -> tuple:
    """Normalized (N,1,L) amplitude and PSD arrays ready for the model."""
    tm, ts, pm, ps = norm_stats
    amp = (amplitude(snapshots) - tm) / ts
    psd = (psd_matrix(snapshots) - pm) / ps
    return amp[:, None, :], psd[:, None, :]


RETRY_FACTOR = 20


def generate_dataset(config: ScenarioConfig, counts) -> DatasetBundle:
    """Assemble splits by walking the candidate stream in index order.

    Label-0 candidates fill train, then validation, then the clean half of
    the test split; label-1 candidates fill the interference half. Surplus
    candidates are discarded. Raises when the candidate budget (RETRY_FACTOR
    times the total requested) runs out before every quota is met.
    """
    n_train, n_val, n_test_pc = (int(c) for c in counts)
    if n_train <= 0 or n_val <= 0 or n_test_pc <= 0:
        raise ConfigError(f"counts must be positive, got {counts}")
    need0 = n_train + n_val + n_test_pc
    need1 = n_test_pc
    budget = RETRY_FACTOR * (need0 + need1)

    clean, interfered = [], []
    index = 0
    while (len(clean) < need0 or len(interfered) < need1) and index < budget:
        snap = generate_snapshot(config, index)
        if snap.label == 0 and len(clean) < need0:
            clean.append(snap)
        elif snap.label == 1 and len(interfered) < need1:
            interfered.append(snap)
        index += 1
    if len(clean) < need0 or len(interfered) < need1:
        raise GenerationError(
            f"candidate budget {budget} exhausted: got {len(clean)}/{need0} "
            f"clean and {len(interfered)}/{need1} interfered snapshots")

    train = clean[:n_train]
    val = clean[n_train:n_train + n_val]
    test = clean[n_train + n_val:need0] + interfered
    return DatasetBundle(train=train, validation=val, test=test,
                         norm_stats=normalization_stats(train), config=config)
