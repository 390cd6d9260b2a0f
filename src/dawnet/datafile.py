"""Binary container formats: "DAWN" datasets and "DAWM" model checkpoints.

Both are little-endian, write→read→write stable at the byte level, and fail
with the absolute file offset of the first inconsistency.
"""

import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError
from .model import PARAMETERS
from .simulate import SNAPSHOT, SNAPSHOT_LEN, DatasetBundle

DATASET_MAGIC = b"DAWN"
DATASET_VERSION = 2
CHECKPOINT_MAGIC = b"DAWM"
CHECKPOINT_VERSION = 2

# the split counts, the samples and bins per record, and the normalization
# stats; then each split's ``SNAPSHOT`` rows, as in memory
DATASET_HEADER = np.dtype([
    ("magic", "S4"), ("version", "<u4"), ("counts", "<u4", (3,)),
    ("dims", "<u4", (2,)), ("norm_stats", "<f8", (4,))])
MAX_SPLIT_LEN = int(np.iinfo(DATASET_HEADER["counts"].base).max)
# the length of the JSON config block that follows; then one ``PARAMETERS``
# record
CHECKPOINT_HEADER = np.dtype([
    ("magic", "S4"), ("version", "<u4"), ("config_len", "<u4")])


def _check_size(size: int, at: int, dtype: np.dtype, count: int, label: str,
                last: bool = True) -> int:
    """Return the end of ``count`` records of ``dtype`` that start at ``at``
    in a file of ``size`` bytes. Refuse a file that stops short of it at the
    first field of its first incomplete record, and, if nothing may follow
    them (``last``), a longer one as trailing bytes at that end."""
    end = at + count * dtype.itemsize
    if size < end:
        whole, spare = divmod(size - at, dtype.itemsize)
        field, field_at = next((d, o) for d, o in dtype.fields.values()
                               if o + d.itemsize > spare)
        raise FormatError(f"truncated {label}: wanted {field.itemsize} bytes",
                          offset=at + whole * dtype.itemsize + field_at)
    if last and size > end:
        raise FormatError(f"{size - end} trailing bytes in {label}",
                          offset=end)
    return end


@contextmanager
def _open(path, kind: str, header: np.dtype, magic: bytes, version: int,
          remedy: str):
    """Yield the open file, its size, its label in errors and its header
    record, once the header's magic and ``kind``'s version are this
    release's."""
    path = Path(path)
    label = f"{kind} {path.name}"
    with path.open("rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(header.itemsize)
        # the magic and then the version are refused as soon as their bytes
        # are in, so a short foreign file is not called truncated
        if len(head) >= len(magic) and head[:len(magic)] != magic:
            raise FormatError(f"bad magic {head[:len(magic)]!r}", offset=0)
        field, at = header.fields["version"]
        if len(head) >= at + field.itemsize:
            got = int(np.frombuffer(head, field, 1, at)[0])
            if got != version:
                raise FormatError(f"unsupported {kind} version {got} (this "
                                  f"release reads version {version}); "
                                  f"{remedy}", offset=at)
        _check_size(len(head), 0, header, 1, label, last=False)
        yield f, size, label, np.frombuffer(head, header)[0]


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def write_dataset(path, bundle: DatasetBundle) -> None:
    """``SNAPSHOT`` declares every field little-endian, so the rows are the
    same bytes on any host."""
    splits = (bundle.train, bundle.validation, bundle.test)
    # the reader refuses any other label
    if not all(np.all((s.label == 0) | (s.label == 1)) for s in splits):
        raise FormatError("labels must be 0 or 1")
    header = np.array((DATASET_MAGIC, DATASET_VERSION, [*map(len, splits)],
                       (SNAPSHOT_LEN, SNAPSHOT_LEN), bundle.norm_stats),
                      DATASET_HEADER)
    with Path(path).open("wb") as f:
        header.tofile(f)
        for split in splits:
            split.tofile(f)


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
                          offset=DATASET_HEADER.itemsize
                          + (first + i) * SNAPSHOT.itemsize)


def read_dataset(path) -> DatasetBundle:
    """Each split in one ``np.fromfile``, after the header and the file size
    are checked; each split owns its rows, so a caller that drops one split
    frees its memory."""
    with _open(path, "dataset", DATASET_HEADER, DATASET_MAGIC,
               DATASET_VERSION, "regenerate it with dawnet gen-data") as (
                   f, size, label, header):
        dims = tuple(header["dims"].tolist())
        if dims != (SNAPSHOT_LEN, SNAPSHOT_LEN):
            raise FormatError(f"{dims[0]} time samples and {dims[1]} PSD "
                              f"bins per record; both must be {SNAPSHOT_LEN}",
                              offset=DATASET_HEADER.fields["dims"][1])
        norm_stats = tuple(header["norm_stats"].tolist())
        if not (all(map(math.isfinite, norm_stats)) and norm_stats[1] > 0
                and norm_stats[3] > 0):
            raise FormatError(f"normalization stats {norm_stats} must be "
                              f"finite with positive standard deviations",
                              offset=DATASET_HEADER.fields["norm_stats"][1])
        counts = header["counts"].tolist()
        _check_size(size, DATASET_HEADER.itemsize, SNAPSHOT, sum(counts),
                    label)
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

def write_checkpoint(path, config: dict, values) -> None:
    """Write the header, the JSON config block and ``values``, which must be
    one ``PARAMETERS`` record: raw IEEE doubles, so a write→read→write cycle
    is byte-identical."""
    if not (isinstance(values, np.ndarray) and values.dtype == PARAMETERS
            and values.shape == ()):
        raise FormatError("parameters must be one PARAMETERS record")
    cfg_blob = json.dumps(config, sort_keys=True).encode("utf-8")
    header = np.array((CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(cfg_blob)),
                      CHECKPOINT_HEADER)
    with Path(path).open("wb") as f:
        header.tofile(f)
        f.write(cfg_blob)
        values.tofile(f)


def read_checkpoint(path):
    """Returns (config, the ``PARAMETERS`` record the file is read into)."""
    with _open(path, "checkpoint", CHECKPOINT_HEADER, CHECKPOINT_MAGIC,
               CHECKPOINT_VERSION, "retrain it with dawnet train") as (
                   f, size, label, header):
        at, n = CHECKPOINT_HEADER.itemsize, int(header["config_len"])
        if size < at + n:
            raise FormatError(f"truncated {label}: wanted {n} bytes",
                              offset=at)
        end = at + n
        try:
            config = json.loads(f.read(n).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"bad config block: {exc}", offset=at) from exc
        _check_size(size, end, PARAMETERS, 1, label)
        record = np.fromfile(f, PARAMETERS, 1).reshape(())
    for name, (_, offset) in PARAMETERS.fields.items():
        if not np.isfinite(record[name]).all():
            raise FormatError(f"non-finite value in parameter {name} of "
                              f"{label}", offset=end + offset)
    return config, record
