"""Container format round-trips and corruption handling."""

import hashlib
import itertools
import struct

import numpy as np
import pytest

from dawnet import datafile, simulate as sim
from dawnet.errors import ConfigError, FormatError


def _bundle(seed=3, counts=(20, 6, 5)):
    return sim.generate_dataset(sim.ScenarioConfig(rng_seed=seed), counts)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- dataset container -------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    bundle = _bundle()
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    back = datafile.read_dataset(p)
    assert back.norm_stats == bundle.norm_stats
    assert back.config == bundle.config
    for a, b in zip(bundle.train + bundle.validation + bundle.test,
                    back.train + back.validation + back.test):
        np.testing.assert_array_equal(a.time_samples, b.time_samples)
        np.testing.assert_array_equal(a.psd_db, b.psd_db)
        assert a.label == b.label
        assert a.inr_db == b.inr_db and a.cnr_db == b.cnr_db


def test_dataset_write_read_write_identical(tmp_path):
    bundle = _bundle(seed=8)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    datafile.write_dataset(p1, bundle)
    datafile.write_dataset(p2, datafile.read_dataset(p1))
    assert _digest(p1) == _digest(p2)
    assert (tmp_path / "a.bin.json").read_text() == \
        (tmp_path / "b.bin.json").read_text()


def test_dataset_bad_magic(tmp_path):
    p = tmp_path / "ds.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "offset 0" in str(exc.value)


def test_dataset_bad_version(tmp_path):
    p = tmp_path / "ds.bin"
    p.write_bytes(b"DAWN" + struct.pack("<I", 99) + b"\x00" * 64)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "version" in str(exc.value)


def test_dataset_truncated(tmp_path):
    bundle = _bundle(seed=1, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    blob = p.read_bytes()
    p.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "truncated" in str(exc.value)


def test_dataset_trailing_garbage(tmp_path):
    bundle = _bundle(seed=1, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "trailing" in str(exc.value)


def test_dataset_bad_label_byte(tmp_path):
    bundle = _bundle(seed=1, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    blob = bytearray(p.read_bytes())
    header = 4 + 4 + 12 + 8 + 32  # magic, version, counts, dims, stats
    blob[header] = 7  # first record's label byte
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "label" in str(exc.value)


def test_dataset_missing_sidecar_is_tolerated(tmp_path):
    bundle = _bundle(seed=2, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    (tmp_path / "ds.bin.json").unlink()
    back = datafile.read_dataset(p)
    assert back.config is None
    assert len(back.train) == 4


def test_dataset_without_sidecar_cannot_be_written(tmp_path):
    bundle = _bundle(seed=2, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    (tmp_path / "ds.bin.json").unlink()
    back = datafile.read_dataset(p)
    with pytest.raises(ConfigError) as exc:
        datafile.write_dataset(tmp_path / "copy.bin", back)
    assert "scenario config" in str(exc.value)
    assert not (tmp_path / "copy.bin").exists()


@pytest.mark.parametrize("text", ["{not json", '{"no_such_key": 1}'],
                         ids=["not-json", "unknown-key"])
def test_dataset_bad_sidecar(tmp_path, text):
    bundle = _bundle(seed=2, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    (tmp_path / "ds.bin.json").write_text(text)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "ds.bin.json" in str(exc.value)


HEADER_PIECES = (4, 4, 12, 8, 32)   # magic, version, counts, dims, stats
HEADER_LEN = sum(HEADER_PIECES)


def _written(tmp_path, counts=(4, 2, 2)):
    """A small dataset on disk: (path, sample_count, fft_bins, records)."""
    bundle = _bundle(seed=1, counts=counts)
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    cfg = bundle.config
    records = len(bundle.train) + len(bundle.validation) + len(bundle.test)
    return p, cfg.sample_count, cfg.fft_bins, records


def _record_pieces(n, m):
    """Widths of a record's pieces: label with both ratios, re, im, PSD."""
    return (17, 4 * n, 4 * n, 4 * m)


def _patch(p, at, fmt, value):
    blob = bytearray(p.read_bytes())
    blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    p.write_bytes(bytes(blob))


def test_dataset_truncation_offsets(tmp_path):
    p, n, m, records = _written(tmp_path, counts=(2, 1, 1))
    blob = p.read_bytes()
    size = sum(_record_pieces(n, m))
    starts = list(itertools.accumulate(HEADER_PIECES[:-1], initial=0))
    for first in (HEADER_LEN, HEADER_LEN + (records - 1) * size):
        starts += itertools.accumulate(_record_pieces(n, m)[:-1],
                                       initial=first)
    starts.append(HEADER_LEN + size)   # the end of the first record
    for start in starts:
        for cut in (start, start + 1):
            p.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as exc:
                datafile.read_dataset(p)
            assert "truncated" in str(exc.value)
            assert exc.value.offset == start, f"cut at {cut}"


def test_dataset_huge_declared_size_is_truncated(tmp_path):
    p = tmp_path / "ds.bin"
    p.write_bytes(b"DAWN" + struct.pack("<I3I2I4d", 1, 1, 0, 0, 2**32 - 1, 8,
                                        0.0, 1.0, 0.0, 1.0) + bytes(40))
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "truncated" in str(exc.value)
    assert "wanted 17179869180 bytes" in str(exc.value)
    assert exc.value.offset == HEADER_LEN + 17


@pytest.mark.parametrize("at,fmt,value", [
    (20, "<I", 0), (24, "<I", 0),
    (28, "<d", float("nan")), (36, "<d", 0.0), (44, "<d", float("inf")),
    (52, "<d", -1.0),
], ids=["no-samples", "no-bins", "nan-mean", "zero-std", "inf-mean",
        "negative-std"])
def test_dataset_bad_header_values(tmp_path, at, fmt, value):
    p, *_ = _written(tmp_path)
    _patch(p, at, fmt, value)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert exc.value.offset == (20 if at < 28 else 28)


@pytest.mark.parametrize("record,piece,value", [
    (-1, 3, float("nan")), (0, 1, float("inf")), (5, 2, float("-inf")),
], ids=["psd-nan-test-split", "re-inf-train-split", "im-neginf-val-split"])
def test_dataset_nonfinite_sample_rejected(tmp_path, record, piece, value):
    p, n, m, records = _written(tmp_path)
    start = HEADER_LEN + (record % records) * sum(_record_pieces(n, m))
    _patch(p, start + sum(_record_pieces(n, m)[:piece]) + 4 * 3, "<f", value)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "non-finite" in str(exc.value)
    assert exc.value.offset == start


def test_dataset_first_bad_label_offset(tmp_path):
    p, n, m, records = _written(tmp_path)
    size = sum(_record_pieces(n, m))
    for k in (records - 1, 3):
        blob = bytearray(p.read_bytes())
        blob[HEADER_LEN + k * size] = 2
        p.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "label" in str(exc.value)
    assert exc.value.offset == HEADER_LEN + 3 * size


def test_dataset_reads_inr_minus_inf(tmp_path):
    # -inf INR means no LEO in band: a legitimate value, not corruption
    p, n, m, _ = _written(tmp_path)
    _patch(p, HEADER_LEN + sum(_record_pieces(n, m)) + 1, "<d",
           float("-inf"))
    back = datafile.read_dataset(p)
    assert back.train[1].inr_db == float("-inf")
    assert type(back.train[1].inr_db) is float


def test_dataset_read_types(tmp_path):
    p, n, m, _ = _written(tmp_path)
    for s in datafile.read_dataset(p).test:
        assert s.time_samples.dtype == np.complex64
        assert s.psd_db.dtype == np.float32
        assert s.time_samples.shape == (n,) and s.psd_db.shape == (m,)
        assert s.time_samples.flags.writeable and s.psd_db.flags.writeable
        assert type(s.label) is int
        assert type(s.inr_db) is float and type(s.cnr_db) is float


# --- checkpoint container ----------------------------------------------------

def _params():
    rng = np.random.default_rng(5)
    return [
        ("enc.w0", rng.standard_normal((4, 1, 7))),
        ("enc.b0", rng.standard_normal(4)),
        ("gate", np.array(0.0)),
    ]


def test_checkpoint_round_trip(tmp_path):
    p = tmp_path / "m.bin"
    cfg = {"scales": [4, 8, 16], "threshold": 1.25, "ablation": "full"}
    datafile.write_checkpoint(p, cfg, _params())
    cfg2, params2 = datafile.read_checkpoint(p)
    assert cfg2 == cfg
    assert [n for n, _ in params2] == [n for n, _ in _params()]
    for (_, a), (_, b) in zip(_params(), params2):
        np.testing.assert_array_equal(np.asarray(a, dtype=np.float64), b)
        assert b.dtype == np.float64


def test_checkpoint_write_read_write_identical(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    cfg = {"lambda1": 1.0, "lambda2": 0.01}
    datafile.write_checkpoint(p1, cfg, _params())
    c, ps = datafile.read_checkpoint(p1)
    datafile.write_checkpoint(p2, c, ps)
    assert _digest(p1) == _digest(p2)


def test_checkpoint_scalar_rank_zero(tmp_path):
    p = tmp_path / "m.bin"
    datafile.write_checkpoint(p, {}, [("gamma", np.array(2.5))])
    _, params = datafile.read_checkpoint(p)
    assert params[0][1].shape == ()
    assert float(params[0][1]) == 2.5


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"JUNK" + b"\x00" * 16)
    with pytest.raises(FormatError):
        datafile.read_checkpoint(p)


def test_checkpoint_corrupt_config(tmp_path):
    p = tmp_path / "m.bin"
    blob = (b"DAWM" + struct.pack("<I", 1) + struct.pack("<I", 4) + b"{{{{"
            + struct.pack("<I", 0))
    p.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert "config" in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "neginf"])
def test_checkpoint_nonfinite_parameter_offset(tmp_path, value):
    p = tmp_path / "m.dawm"
    bad = np.arange(5.0)
    bad[-1] = value
    datafile.write_checkpoint(p, {}, [("w", np.ones((2, 3))), ("b", bad)])
    # the offset is where the array starts, four doubles before the bad one
    start = p.read_bytes().index(np.array(value, "<f8").tobytes()) - 4 * 8
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert exc.value.offset == start
    assert "parameter b" in str(exc.value) and "m.dawm" in str(exc.value)


def test_checkpoint_name_not_utf8(tmp_path):
    p = tmp_path / "m.bin"
    datafile.write_checkpoint(p, {}, [("gate", np.array(1.0))])
    blob = p.read_bytes()
    at = blob.index(b"gate")
    p.write_bytes(blob[:at] + b"\xff\xfe\xfd\xfc" + blob[at + 4:])
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert exc.value.offset == at
