"""Container format round-trips and corruption handling."""

import hashlib
import struct

import numpy as np
import pytest

from dawnet import datafile, simulate as sim
from dawnet.errors import FormatError


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


def test_checkpoint_name_not_utf8(tmp_path):
    p = tmp_path / "m.bin"
    datafile.write_checkpoint(p, {}, [("gate", np.array(1.0))])
    blob = p.read_bytes()
    at = blob.index(b"gate")
    p.write_bytes(blob[:at] + b"\xff\xfe\xfd\xfc" + blob[at + 4:])
    with pytest.raises(FormatError) as exc:
        datafile.read_checkpoint(p)
    assert exc.value.offset == at
