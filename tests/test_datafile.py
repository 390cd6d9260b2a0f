"""Container format round-trips and corruption handling."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawnet import datafile, simulate as sim
from dawnet.errors import FormatError
from dawnet.model import PARAMETERS, DualDomainAutoencoder, ModelConfig


def _bundle(seed=3, counts=(20, 6, 5)):
    return sim.generate_dataset(seed, counts)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- dataset container -------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    bundle = _bundle()
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    back = datafile.read_dataset(p)
    assert back.norm_stats == bundle.norm_stats
    for a, b in zip([*bundle.train, *bundle.validation, *bundle.test],
                    [*back.train, *back.validation, *back.test]):
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


def test_dataset_bad_magic(tmp_path):
    p = tmp_path / "ds.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "offset 0" in str(exc.value)


@pytest.mark.parametrize("read,blob,what,offset", [
    (datafile.read_dataset, b"hello\n", "bad magic b'hell'", 0),
    (datafile.read_checkpoint, b"hello\n", "bad magic b'hell'", 0),
    (datafile.read_dataset, b"DAW", "truncated", 0),
    (datafile.read_checkpoint, b"DAW", "truncated", 0),
    (datafile.read_dataset, b"DAWN" + struct.pack("<I", 99), "version 99", 4),
    (datafile.read_checkpoint, b"DAWM" + struct.pack("<I", 99), "version 99",
     4),
], ids=["dataset-text", "checkpoint-text", "dataset-3-bytes",
        "checkpoint-3-bytes", "dataset-v99", "checkpoint-v99"])
def test_header_shorter_than_its_dtype(tmp_path, read, blob, what, offset):
    # the magic and the version are judged before the header's length
    p = tmp_path / "short"
    p.write_bytes(blob)
    with pytest.raises(FormatError) as exc:
        read(p)
    assert what in str(exc.value)
    assert exc.value.offset == offset


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


HEADER_PIECES = (4, 4, 12, 8, 32)   # magic, version, counts, dims, stats
HEADER_LEN = sum(HEADER_PIECES)
# a record is one SNAPSHOT row: each field's offset in it, in file order
FIELD_AT = {name: at for name, (_, at) in sim.SNAPSHOT.fields.items()}
RECORD_LEN = sim.SNAPSHOT.itemsize


def test_dataset_bad_label_byte(tmp_path):
    bundle = _bundle(seed=1, counts=(4, 2, 2))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    blob = bytearray(p.read_bytes())
    blob[HEADER_LEN + FIELD_AT["label"]] = 7  # first record's label, low byte
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "label must be 0 or 1, got 7 in record 0" in str(exc.value)
    assert exc.value.offset == HEADER_LEN


def _written(tmp_path, counts=(4, 2, 2)):
    """A small dataset on disk: (path, records)."""
    bundle = _bundle(seed=1, counts=counts)
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    records = len(bundle.train) + len(bundle.validation) + len(bundle.test)
    return p, records


def _patch(p, at, fmt, value):
    blob = bytearray(p.read_bytes())
    blob[at:at + struct.calcsize(fmt)] = struct.pack(fmt, value)
    p.write_bytes(bytes(blob))


def test_dataset_truncation_offsets(tmp_path):
    p, records = _written(tmp_path, counts=(2, 1, 1))
    blob = p.read_bytes()
    starts = [0, 4, 8, 20, 28]   # the header fields
    for first in (HEADER_LEN, HEADER_LEN + (records - 1) * RECORD_LEN):
        starts += [first + at for at in FIELD_AT.values()]
    starts.append(HEADER_LEN + RECORD_LEN)   # the end of the first record
    for start in starts:
        for cut in (start, start + 1):
            p.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as exc:
                datafile.read_dataset(p)
            assert "truncated" in str(exc.value)
            assert exc.value.offset == start, f"cut at {cut}"


def test_dataset_huge_declared_size_is_truncated(tmp_path):
    # 3·(2³²−1) declared records: refused before anything is allocated.
    # The first record's time samples fit and its PSD does not.
    p = tmp_path / "ds.bin"
    huge = 2**32 - 1
    p.write_bytes(b"DAWN" + struct.pack("<I3I2I4d", 2, huge, huge, huge,
                                        800, 800, 0.0, 1.0, 0.0, 1.0)
                  + bytes(FIELD_AT["psd_db"] + 40))
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "truncated" in str(exc.value)
    assert "wanted 3200 bytes" in str(exc.value)
    assert exc.value.offset == HEADER_LEN + FIELD_AT["psd_db"]


@pytest.mark.parametrize("at,fmt,value", [
    (20, "<I", 0), (24, "<I", 0), (20, "<I", 801), (24, "<I", 400),
    (28, "<d", float("nan")), (36, "<d", 0.0), (44, "<d", float("inf")),
    (52, "<d", -1.0),
], ids=["no-samples", "no-bins", "801-samples", "400-bins", "nan-mean",
        "zero-std", "inf-mean", "negative-std"])
def test_dataset_bad_header_values(tmp_path, at, fmt, value):
    p, *_ = _written(tmp_path)
    _patch(p, at, fmt, value)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert exc.value.offset == (20 if at < 28 else 28)


# (field, float32 index in it): PSD bin 3, and the real and imaginary parts
# of time sample 3, which are interleaved
@pytest.mark.parametrize("record,field,index,value", [
    (-1, "psd_db", 3, float("nan")), (0, "time_samples", 6, float("inf")),
    (5, "time_samples", 7, float("-inf")),
], ids=["psd-nan-test-split", "re-inf-train-split", "im-neginf-val-split"])
def test_dataset_nonfinite_sample_rejected(tmp_path, record, field, index,
                                           value):
    p, records = _written(tmp_path)
    start = HEADER_LEN + (record % records) * RECORD_LEN
    _patch(p, start + FIELD_AT[field] + 4 * index, "<f", value)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "non-finite" in str(exc.value)
    assert exc.value.offset == start


@pytest.mark.parametrize("field,value,what", [
    ("inr_db", float("nan"), "INR"), ("inr_db", float("inf"), "INR"),
    ("cnr_db", float("nan"), "CNR"), ("cnr_db", float("inf"), "CNR"),
    ("cnr_db", float("-inf"), "CNR"),
], ids=["inr-nan", "inr-inf", "cnr-nan", "cnr-inf", "cnr-neginf"])
def test_dataset_nonfinite_link_figure_rejected(tmp_path, field, value, what):
    p, _ = _written(tmp_path)
    start = HEADER_LEN + 6 * RECORD_LEN   # the test split's first row
    _patch(p, start + FIELD_AT[field], "<d", value)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert what in str(exc.value) and "in record 6" in str(exc.value)
    assert exc.value.offset == start


def test_dataset_first_bad_label_offset(tmp_path):
    p, records = _written(tmp_path)
    for k in (records - 1, 3):
        _patch(p, HEADER_LEN + k * RECORD_LEN + FIELD_AT["label"], "<q", 2)
    with pytest.raises(FormatError) as exc:
        datafile.read_dataset(p)
    assert "label" in str(exc.value)
    assert exc.value.offset == HEADER_LEN + 3 * RECORD_LEN


@pytest.mark.parametrize("label", [2, 256, -1])
def test_dataset_write_refuses_a_label_its_byte_cannot_hold(tmp_path, label):
    # the reader would refuse the file
    bundle = _bundle()
    bundle.test.label[-1] = label
    p = tmp_path / "ds.bin"
    with pytest.raises(FormatError, match="labels must be 0 or 1"):
        datafile.write_dataset(p, bundle)
    assert not p.exists()


def test_dataset_reads_inr_minus_inf(tmp_path):
    # -inf INR means no LEO in band: a legitimate value, not corruption
    p, _ = _written(tmp_path)
    _patch(p, HEADER_LEN + RECORD_LEN + FIELD_AT["inr_db"], "<d",
           float("-inf"))
    back = datafile.read_dataset(p)
    assert back.train[1].inr_db == float("-inf")
    assert back.train.inr_db.dtype == np.float64


def test_dataset_read_types(tmp_path):
    p, _ = _written(tmp_path)
    test = datafile.read_dataset(p).test
    assert isinstance(test, np.recarray) and test.dtype == sim.SNAPSHOT
    assert test.label.shape == test.inr_db.shape == (len(test),)
    assert test.label.dtype == np.int64
    assert test.inr_db.dtype == test.cnr_db.dtype == np.float64
    for s in test:
        assert s.time_samples.dtype == np.complex64
        assert s.psd_db.dtype == np.float32
        assert s.time_samples.shape == s.psd_db.shape == (sim.SNAPSHOT_LEN,)
        assert s.time_samples.flags.writeable and s.psd_db.flags.writeable
        assert isinstance(s.label, np.int64)
        assert isinstance(s.inr_db, np.float64)
        assert isinstance(s.cnr_db, np.float64)


def test_dataset_is_the_splits_bytes(tmp_path):
    bundle = _bundle()
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    assert p.read_bytes()[HEADER_LEN:] == (bundle.train.tobytes()
                                           + bundle.validation.tobytes()
                                           + bundle.test.tobytes())


def test_dataset_read_holds_only_the_splits(tmp_path):
    # zero rows are valid records; 400 of them are 3.8 MB
    rows = np.zeros(400, sim.SNAPSHOT).view(np.recarray)
    bundle = sim.DatasetBundle(rows[:300], rows[300:350], rows[350:],
                               (0.0, 1.0, 0.0, 1.0))
    p = tmp_path / "ds.bin"
    datafile.write_dataset(p, bundle)
    tracemalloc.start()
    try:
        back = datafile.read_dataset(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(back.train) + len(back.validation) + len(back.test) == 400
    assert peak <= rows.nbytes + 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.fixture(scope="module")
def tiny_blob(tmp_path_factory):
    """A five-record dataset's bytes."""
    p = tmp_path_factory.mktemp("tiny") / "ds.bin"
    datafile.write_dataset(p, _bundle(seed=1, counts=(2, 1, 1)))
    return p.read_bytes()


def _cuts(blob):
    """Every field boundary of the first and the last record, +/- 1 byte."""
    bounds = {first + at for first in (HEADER_LEN, len(blob) - RECORD_LEN)
              for at in (*FIELD_AT.values(), RECORD_LEN)}
    return sorted(b + d for b in bounds for d in (-1, 0, 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dataset_damaged_reads_or_fails_inside_file(tmp_path_factory,
                                                    tiny_blob, data):
    blob = bytearray(tiny_blob)
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.sampled_from(_cuts(blob)), label="cut"):]
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    p = tmp_path_factory.getbasetemp() / "damaged.bin"
    p.write_bytes(bytes(blob))
    try:
        datafile.read_dataset(p)
    except FormatError as exc:
        assert exc.offset is not None and 0 <= exc.offset <= len(blob)


# --- checkpoint container ----------------------------------------------------

def _params(seed=5):
    """A model's parameters: the only list a checkpoint holds."""
    return DualDomainAutoencoder(ModelConfig(), seed=seed).named_parameters()


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
    params = dict(_params())
    params["attention.gamma"] = np.array(2.5)
    datafile.write_checkpoint(p, {}, params.items())
    _, back = datafile.read_checkpoint(p)
    gamma = dict(back)["attention.gamma"]
    assert gamma.shape == ()
    assert float(gamma) == 2.5


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.bin"
    p.write_bytes(b"JUNK" + b"\x00" * 16)
    with pytest.raises(FormatError):
        datafile.read_checkpoint(p)


def test_checkpoint_corrupt_config(tmp_path):
    p = tmp_path / "m.bin"
    datafile.write_checkpoint(p, {"a": 1}, _params())
    blob = bytearray(p.read_bytes())
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    blob[12:12 + cfg_len] = b"{" * cfg_len
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert "config" in str(exc.value)
    assert exc.value.offset == 12


def test_checkpoint_version_1_refused(tmp_path):
    # version 1 stored each parameter's name and dims: no reader left
    p = tmp_path / "m.dawm"
    p.write_bytes(b"DAWM" + struct.pack("<II", 1, 2) + b"{}"
                  + struct.pack("<I", 0))
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert "checkpoint version 1" in str(exc.value)
    assert "retrain it with dawnet train" in str(exc.value)
    assert exc.value.offset == 4


@pytest.mark.parametrize("config_len", [2**31, 2**32 - 1])
def test_checkpoint_huge_config_length_is_truncated(tmp_path, config_len):
    p = tmp_path / "m.dawm"
    datafile.write_checkpoint(p, {}, _params())
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 8, config_len)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert f"wanted {config_len} bytes" in str(exc.value)
    assert exc.value.offset == 12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "neginf"])
def test_checkpoint_nonfinite_parameter_offset(tmp_path, value):
    p = tmp_path / "m.dawm"
    params = dict(_params())
    bad = params["decoder.tconv1.bias"] = np.arange(8.0)
    bad[-1] = value
    datafile.write_checkpoint(p, {}, params.items())
    # the offset is where the array starts, seven doubles before the bad one
    start = p.read_bytes().index(np.array(value, "<f8").tobytes()) - 7 * 8
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert exc.value.offset == start
    assert ("parameter decoder.tconv1.bias" in str(exc.value)
            and "m.dawm" in str(exc.value))


@pytest.fixture(scope="module")
def model_blob(tmp_path_factory):
    """A model checkpoint's bytes and its config block's length."""
    p = tmp_path_factory.mktemp("model") / "m.dawm"
    datafile.write_checkpoint(p, {"threshold": {"value": 0.5}}, _params(1))
    blob = p.read_bytes()
    return blob, struct.unpack_from("<I", blob, 8)[0]


def _checkpoint_cuts(blob, cfg_len):
    """Every header field boundary, the end of the config block, and every
    boundary of the first and the last parameter, +/- 1 byte."""
    header = datafile.CHECKPOINT_HEADER
    first = header.itemsize + cfg_len
    fields = [at for _, at in PARAMETERS.fields.values()]
    bounds = {*(at for _, at in header.fields.values()), header.itemsize,
              first, *(first + at for at in fields[:2]),
              first + fields[-1], len(blob)}
    return sorted(b + d for b in bounds for d in (-1, 0, 1) if b + d >= 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint_damaged_reads_or_fails_inside_file(tmp_path_factory,
                                                       model_blob, data):
    blob, cfg_len = model_blob
    blob = bytearray(blob)
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.sampled_from(_checkpoint_cuts(blob, cfg_len)),
                        label="cut")
        del blob[cut:]
    else:
        # half the flips land in the header, a sliver of the whole file
        at = data.draw(st.one_of(
            st.integers(0, datafile.CHECKPOINT_HEADER.itemsize - 1),
            st.integers(0, len(blob) - 1)), label="at")
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    p = tmp_path_factory.getbasetemp() / "damaged.dawm"
    p.write_bytes(bytes(blob))
    try:
        datafile.read_checkpoint(p)
    except FormatError as exc:
        assert exc.offset is not None and 0 <= exc.offset <= len(blob)
