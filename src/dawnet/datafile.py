"""Binary container formats: "DAWN" datasets and "DAWM" model checkpoints.

Both are little-endian, write→read→write stable at the byte level, and fail
with the absolute file offset of the first inconsistency.
"""

import json
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .simulate import DatasetBundle, ScenarioConfig, Snapshot

DATASET_MAGIC = b"DAWN"
DATASET_VERSION = 1
CHECKPOINT_MAGIC = b"DAWM"
CHECKPOINT_VERSION = 1


class _Reader:
    """Cursor over bytes that reports offsets in parse errors."""

    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"truncated {self.label}: wanted {n} bytes", offset=self.pos)
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        raw = self.take(int(count) * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=np.dtype(dtype).newbyteorder("<")).copy()

    def expect_end(self):
        if self.pos != len(self.blob):
            raise FormatError(
                f"{len(self.blob) - self.pos} trailing bytes in {self.label}",
                offset=self.pos)


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def _pack_snapshot(s: Snapshot, sample_count: int, fft_bins: int) -> bytes:
    if s.time_samples.shape != (sample_count,):
        raise FormatError(f"snapshot has {s.time_samples.shape[0]} time "
                          f"samples, expected {sample_count}")
    if s.psd_db.shape != (fft_bins,):
        raise FormatError(f"snapshot has {s.psd_db.shape[0]} PSD bins, "
                          f"expected {fft_bins}")
    parts = [
        struct.pack("<Bdd", int(s.label), float(s.inr_db), float(s.cnr_db)),
        np.ascontiguousarray(s.time_samples.real, dtype="<f4").tobytes(),
        np.ascontiguousarray(s.time_samples.imag, dtype="<f4").tobytes(),
        np.ascontiguousarray(s.psd_db, dtype="<f4").tobytes(),
    ]
    return b"".join(parts)


def write_dataset(path, bundle: DatasetBundle) -> None:
    """Write the bundle plus a JSON sidecar (<path>.json) with the config."""
    path = Path(path)
    cfg = bundle.config
    if cfg is None:
        raise ConfigError(f"cannot write {path.name}: the bundle has no "
                          f"scenario config (its .json sidecar was missing "
                          f"when it was read)")
    sc, fb = cfg.sample_count, cfg.fft_bins
    head = [
        DATASET_MAGIC,
        struct.pack("<I", DATASET_VERSION),
        struct.pack("<III", len(bundle.train), len(bundle.validation),
                    len(bundle.test)),
        struct.pack("<II", sc, fb),
        struct.pack("<dddd", *bundle.norm_stats),
    ]
    body = [_pack_snapshot(s, sc, fb)
            for s in (*bundle.train, *bundle.validation, *bundle.test)]
    path.write_bytes(b"".join(head + body))
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def read_dataset(path) -> DatasetBundle:
    path = Path(path)
    r = _Reader(path.read_bytes(), f"dataset {path.name}")
    magic = r.take(4)
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    (version,) = r.unpack("I")
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version}", offset=4)
    n_train, n_val, n_test = r.unpack("III")
    sample_count, fft_bins = r.unpack("II")
    norm_stats = r.unpack("dddd")

    def one() -> Snapshot:
        at = r.pos
        label, inr_db, cnr_db = r.unpack("Bdd")
        if label not in (0, 1):
            raise FormatError(f"label byte must be 0 or 1, got {label}",
                              offset=at)
        re = r.array("f4", sample_count).astype(np.float32)
        im = r.array("f4", sample_count).astype(np.float32)
        psd = r.array("f4", fft_bins).astype(np.float32)
        time = np.empty(sample_count, dtype=np.complex64)
        time.real = re
        time.imag = im
        return Snapshot(time_samples=time, psd_db=psd, label=int(label),
                        inr_db=float(inr_db), cnr_db=float(cnr_db))

    train = [one() for _ in range(n_train)]
    val = [one() for _ in range(n_val)]
    test = [one() for _ in range(n_test)]
    r.expect_end()

    sidecar = path.with_name(path.name + ".json")
    config = None
    if sidecar.exists():
        try:
            config = ScenarioConfig.from_dict(json.loads(sidecar.read_text()))
        except (ValueError, TypeError) as exc:
            raise FormatError(f"bad sidecar {sidecar.name}: {exc}") from exc
    return DatasetBundle(train=train, validation=val, test=test,
                         norm_stats=tuple(norm_stats), config=config)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def write_checkpoint(path, config: dict, named_params) -> None:
    """Serialize (name, float64 array) pairs after a JSON config block.

    Parameter order is preserved; values are raw IEEE doubles so a
    write→read→write cycle is byte-identical.
    """
    named_params = list(named_params)
    cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(cfg_blob)),
        cfg_blob,
        struct.pack("<I", len(named_params)),
    ]
    for name, arr in named_params:
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise FormatError(f"parameter name too long: {name[:32]}...")
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(arr, dtype="<f8")
        parts.append(struct.pack("<H", len(raw_name)))
        parts.append(raw_name)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_checkpoint(path):
    """Returns (config dict, list of (name, float64 array)) in file order."""
    path = Path(path)
    r = _Reader(path.read_bytes(), f"checkpoint {path.name}")
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    (version,) = r.unpack("I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    (cfg_len,) = r.unpack("I")
    at = r.pos
    try:
        config = json.loads(r.take(cfg_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"bad config block: {exc}", offset=at) from exc
    (n_params,) = r.unpack("I")
    params = []
    for _ in range(n_params):
        (name_len,) = r.unpack("H")
        at = r.pos
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"parameter name is not UTF-8: {exc}",
                              offset=at) from exc
        (rank,) = r.unpack("B")
        dims = r.unpack(f"{rank}I") if rank else ()
        count = 1
        for d in dims:
            count *= d
        values = r.array("f8", count).reshape(dims)
        params.append((name, values))
    r.expect_end()
    return config, params
