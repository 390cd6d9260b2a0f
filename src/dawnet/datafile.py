"""Binary container formats: "DAWN" datasets and "DAWM" model checkpoints.

Both are little-endian, write→read→write stable at the byte level, and fail
with the absolute file offset of the first inconsistency.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .simulate import SNAPSHOT, SNAPSHOT_LEN, DatasetBundle

DATASET_MAGIC = b"DAWN"
DATASET_VERSION = 1
CHECKPOINT_MAGIC = b"DAWM"
CHECKPOINT_VERSION = 1
# the dataset header stores each split's length as a u32
MAX_SPLIT_LEN = 2 ** 32 - 1


class _Reader:
    """Cursor over bytes that reports offsets in parse errors."""

    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.pos = 0
        self.label = label

    def _need(self, n: int):
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"truncated {self.label}: wanted {n} bytes", offset=self.pos)

    def take(self, n: int) -> bytes:
        self._need(n)
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """``count`` items at the cursor, copied once out of the blob."""
        dtype = np.dtype(dtype).newbyteorder("<")
        count = int(count)
        self._need(count * dtype.itemsize)
        out = np.frombuffer(self.blob, dtype, count, self.pos).copy()
        self.pos += count * dtype.itemsize
        return out

    def expect_end(self):
        if self.pos != len(self.blob):
            raise FormatError(
                f"{len(self.blob) - self.pos} trailing bytes in {self.label}",
                offset=self.pos)


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

# one packed record, in file order: 17 + 12·SNAPSHOT_LEN bytes
RECORD = np.dtype([("label", "u1"), ("inr_db", "<f8"), ("cnr_db", "<f8"),
                   ("re", "<f4", (SNAPSHOT_LEN,)),
                   ("im", "<f4", (SNAPSHOT_LEN,)),
                   ("psd", "<f4", (SNAPSHOT_LEN,))])


def write_dataset(path, bundle: DatasetBundle) -> None:
    """The header, then each split's columns assigned to ``RECORD`` rows;
    one split's records at a time, so that writing holds at most one
    split's copy besides the bundle."""
    splits = (bundle.train, bundle.validation, bundle.test)
    # the label byte would wrap a label that the reader must refuse
    if not all(np.all((s.label == 0) | (s.label == 1)) for s in splits):
        raise FormatError("labels must be 0 or 1")
    with Path(path).open("wb") as f:
        f.write(struct.pack("<4sI3I2I4d", DATASET_MAGIC, DATASET_VERSION,
                            *map(len, splits), SNAPSHOT_LEN, SNAPSHOT_LEN,
                            *bundle.norm_stats))
        for split in splits:
            rec = np.empty(len(split), RECORD)
            time = split.time_samples
            rec["re"], rec["im"], rec["psd"] = (time.real, time.imag,
                                                split.psd_db)
            for name in ("label", "inr_db", "cnr_db"):
                rec[name] = split[name]
            rec.tofile(f)


def _read_records(r: _Reader, counts) -> list:
    """One split per count, from consecutive records at the cursor, in one
    ``frombuffer``.

    The size is checked in Python integers first. A short file fails at the
    first piece that does not fit: the label with both ratios, then each
    array. Each split owns its rows, so a caller that drops one split
    frees its memory."""
    widths = [RECORD[name].itemsize for name in RECORD.names]
    size, start, count = RECORD.itemsize, r.pos, sum(counts)
    whole = min(count, (len(r.blob) - start) // size)
    if whole < count:
        r.pos = start + whole * size
        for width in (sum(widths[:3]), *widths[3:]):
            r.take(width)  # one of these raises: the record is incomplete
    rec = np.frombuffer(r.blob, RECORD, count, start)
    r.pos = start + count * size

    splits, first = [], 0
    for n in counts:
        part = rec[first:first + n]
        split = np.recarray(n, SNAPSHOT)
        time, psd = split.time_samples, split.psd_db
        time.real, time.imag, psd[...] = part["re"], part["im"], part["psd"]
        labels = part["label"]
        # a row's min and max carry any NaN or inf in it
        time_ok, psd_ok = (np.isfinite(a.min(axis=1))
                           & np.isfinite(a.max(axis=1))
                           for a in (time.view(np.float32), psd))
        bad = (labels > 1) | ~time_ok | ~psd_ok
        if bad.any():
            i = int(np.argmax(bad))
            what = "PSD bin" if time_ok[i] else "time sample"
            raise FormatError(f"label byte must be 0 or 1, got {labels[i]}"
                              if labels[i] > 1 else
                              f"non-finite {what} in record {first + i}",
                              offset=start + (first + i) * size)
        for name in ("label", "inr_db", "cnr_db"):
            split[name] = part[name]
        splits.append(split)
        first += n
    return splits


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
    dims = r.unpack("II")
    if dims != (SNAPSHOT_LEN, SNAPSHOT_LEN):
        raise FormatError(f"{dims[0]} time samples and {dims[1]} PSD bins "
                          f"per record; both must be {SNAPSHOT_LEN}",
                          offset=20)
    norm_stats = r.unpack("dddd")
    if not (all(map(math.isfinite, norm_stats)) and norm_stats[1] > 0
            and norm_stats[3] > 0):
        raise FormatError(f"normalization stats {norm_stats} must be finite "
                          f"with positive standard deviations", offset=28)
    train, val, test = _read_records(r, (n_train, n_val, n_test))
    r.expect_end()
    return DatasetBundle(train=train, validation=val, test=test,
                         norm_stats=norm_stats)


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
        at = r.pos
        values = r.array("f8", count).reshape(dims)
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite value in parameter {name} of "
                              f"{r.label}", offset=at)
        params.append((name, values))
    r.expect_end()
    return config, params
