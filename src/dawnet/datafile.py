"""Binary container formats: "DAWN" datasets and "DAWM" model checkpoints.

Both are little-endian, write→read→write stable at the byte level, and fail
with the absolute file offset of the first inconsistency.
"""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .simulate import SNAPSHOT, SNAPSHOT_LEN, DatasetBundle

DATASET_MAGIC = b"DAWN"
DATASET_VERSION = 2
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

# magic, version, the three split counts, samples and bins per record, and
# the normalization stats; then each split's ``SNAPSHOT`` rows, as in memory
DATASET_HEADER = "<4sI3I2I4d"
HEADER_LEN = struct.calcsize(DATASET_HEADER)


def write_dataset(path, bundle: DatasetBundle) -> None:
    """``SNAPSHOT`` declares every field little-endian, so the rows are the
    same bytes on any host."""
    splits = (bundle.train, bundle.validation, bundle.test)
    # the reader refuses any other label
    if not all(np.all((s.label == 0) | (s.label == 1)) for s in splits):
        raise FormatError("labels must be 0 or 1")
    with Path(path).open("wb") as f:
        f.write(struct.pack(DATASET_HEADER, DATASET_MAGIC, DATASET_VERSION,
                            *map(len, splits), SNAPSHOT_LEN, SNAPSHOT_LEN,
                            *bundle.norm_stats))
        for split in splits:
            split.tofile(f)


def _check_size(size: int, count: int, label: str) -> None:
    """Refuse a file that is not the header and ``count`` records long: a
    short one at the first field of its first incomplete record."""
    end = HEADER_LEN + count * SNAPSHOT.itemsize
    if size > end:
        raise FormatError(f"{size - end} trailing bytes in {label}",
                          offset=end)
    if size < end:
        whole, spare = divmod(size - HEADER_LEN, SNAPSHOT.itemsize)
        dtype, at = next((d, at) for d, at in SNAPSHOT.fields.values()
                         if at + d.itemsize > spare)
        raise FormatError(f"truncated {label}: wanted {dtype.itemsize} bytes",
                          offset=HEADER_LEN + whole * SNAPSHOT.itemsize + at)


def _check_rows(split, first: int) -> None:
    """Refuse the first row that no writer produces, at the offset of its
    record; the split holds records ``first`` onward."""
    # a row's min and max carry any NaN or inf in it
    time_ok, psd_ok = (np.isfinite(a.min(axis=1)) & np.isfinite(a.max(axis=1))
                       for a in (split.time_samples.view(np.float32),
                                 split.psd_db))
    masks = ((split.label == 0) | (split.label == 1), time_ok, psd_ok,
             # -inf INR means no LEO in band
             np.isfinite(split.inr_db) | (split.inr_db == -np.inf),
             np.isfinite(split.cnr_db))
    ok = np.logical_and.reduce(masks)
    if not ok.all():
        i = int(np.argmin(ok))
        what = next(r for m, r in zip(masks, (
            f"label must be 0 or 1, got {split.label[i]}",
            "non-finite time sample", "non-finite PSD bin",
            "INR neither finite nor -inf", "non-finite CNR")) if not m[i])
        raise FormatError(f"{what} in record {first + i}",
                          offset=HEADER_LEN + (first + i) * SNAPSHOT.itemsize)


def read_dataset(path) -> DatasetBundle:
    """Each split in one ``np.fromfile``, after the header and the file size
    are checked; each split owns its rows, so a caller that drops one split
    frees its memory."""
    path = Path(path)
    label = f"dataset {path.name}"
    with path.open("rb", buffering=0) as f:
        r = _Reader(f.read(HEADER_LEN), label)
        magic = r.take(4)
        if magic != DATASET_MAGIC:
            raise FormatError(f"bad magic {magic!r}", offset=0)
        (version,) = r.unpack("I")
        if version != DATASET_VERSION:
            raise FormatError(f"unsupported dataset version {version} (this "
                              f"release reads version {DATASET_VERSION}); "
                              f"regenerate it with dawnet gen-data", offset=4)
        counts = r.unpack("III")
        dims = r.unpack("II")
        if dims != (SNAPSHOT_LEN, SNAPSHOT_LEN):
            raise FormatError(f"{dims[0]} time samples and {dims[1]} PSD "
                              f"bins per record; both must be {SNAPSHOT_LEN}",
                              offset=20)
        norm_stats = r.unpack("dddd")
        if not (all(map(math.isfinite, norm_stats)) and norm_stats[1] > 0
                and norm_stats[3] > 0):
            raise FormatError(f"normalization stats {norm_stats} must be "
                              f"finite with positive standard deviations",
                              offset=28)
        _check_size(os.fstat(f.fileno()).st_size, sum(counts), label)
        splits, first = [], 0
        for n in counts:
            split = np.fromfile(f, SNAPSHOT, n).view(np.recarray)
            _check_rows(split, first)
            splits.append(split)
            first += n
    return DatasetBundle(*splits, norm_stats=norm_stats)


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
