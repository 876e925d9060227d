"""Bag/instance data model, synthetic bag generator, pseudo-bag partitioning,
the line-oriented JSON dataset format and its binary sidecar.

Synthetic bags emulate the weakly-labeled regime: a bag is positive iff at
least one of its instances was drawn from the positive blob, and only the
bag-level label is ever visible to training.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
import tempfile
import warnings
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .milnet import NUM_CLASSES


class DatasetParseError(ValueError):
    """Malformed dataset file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigError(ValueError):
    """An option value no run can use: the CLI's usage error (exit code 2)."""


# Features are stored with 9 significant digits; quantizing at generation
# time makes save/load an exact round trip.
def _quantize(x: float) -> float:
    return float(f"{x:.9g}")


_quantize_vec = np.vectorize(_quantize, otypes=[np.float64])


@dataclass(eq=False)
class Bag:
    """K instances stored as one K x d feature matrix, with a soft label over
    the two classes. `latent_positive` is per-instance generator-side ground
    truth, present only for synthetic data and never serialized."""

    id: str
    features: np.ndarray
    label: np.ndarray
    latent_positive: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(
                f"bag {self.id!r} features must be a K x d matrix, "
                f"got shape {self.features.shape}"
            )
        if self.features.shape[0] < 1:
            raise ValueError(f"bag {self.id!r} has no instances")
        if not np.isfinite(self.features).all():
            raise ValueError(f"bag {self.id!r} has non-finite features")
        self.label = np.asarray(self.label, dtype=np.float64).ravel()
        if self.label.size != NUM_CLASSES:
            raise ValueError(f"bag {self.id!r} label has {self.label.size} entries, not 2")
        if not ((self.label >= -1e-12) & (self.label <= 1 + 1e-12)).all():  # NaN fails too
            raise ValueError(f"bag {self.id!r} has label entries outside [0, 1]")
        if abs(self.label.sum() - 1.0) > 1e-9:
            raise ValueError(f"bag {self.id!r} label does not sum to 1")

    def __len__(self) -> int:
        return self.features.shape[0]


def features_matrix(bag) -> np.ndarray:
    """K x d matrix of a bag's instance features. A named call, so that
    perfbench's tracer can count where bags are read as matrices."""
    return bag.features


def row_slices(bags):
    """Each bag with its slice of the rows stacking all bags' instances in order."""
    start = 0
    for bag in bags:
        yield bag, slice(start, start + len(bag))
        start += len(bag)


@dataclass
class Dataset:
    bags: list[Bag]
    d_raw: int

    def __len__(self) -> int:
        return len(self.bags)


def partition_pseudobags(bag, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniformly random partition of a bag's instance indices into n groups
    with sizes differing by <= 1, larger groups first. `bag` is a Bag or its
    feature rows: only its length is read.

    Bags smaller than n yield singleton groups plus empty ones; indices are
    sorted within each group.
    """
    order = rng.permutation(len(bag))
    size, extra = divmod(len(order), n)  # the first `extra` groups get one more
    return [np.sort(order[g * size + min(g, extra):(g + 1) * size + min(g + 1, extra)])
            for g in range(n)]


@dataclass
class SyntheticSpec:
    """Parameters of the two-Gaussian-blob bag generator.

    `rho` is the positive-instance ratio inside positive bags; `delta` is the
    distance between the class means; features get isotropic noise of scale
    `noise`.
    """

    num_bags: int
    instances_per_bag: int | tuple[int, int] = 50
    d_raw: int = 16
    rho: float = 0.10
    delta: float = 1.0
    noise: float = 1.0
    positive_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_bags < 1:
            raise ConfigError(f"num_bags must be >= 1, got {self.num_bags}")
        if self.d_raw < 1:
            raise ConfigError(f"d_raw must be >= 1, got {self.d_raw}")
        if not (0.0 < self.rho <= 1.0):
            raise ConfigError(f"rho must be in (0, 1], got {self.rho}")
        if not 0 <= self.delta < math.inf:  # NaN fails too
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta}")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if not (0.0 <= self.positive_fraction <= 1.0):
            raise ConfigError(
                f"positive_fraction must be in [0, 1], got {self.positive_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        k = self.instances_per_bag
        if isinstance(k, int):
            if k < 1:
                raise ConfigError(f"instances_per_bag must be >= 1, got {k}")
        else:
            lo, hi = k
            if lo < 1 or hi < lo:
                raise ConfigError(f"bad instances_per_bag range {k}")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset: negative bags hold only negative-blob
    instances, positive bags hold ceil(rho * K) positive-blob instances."""
    rng = np.random.default_rng(spec.seed)
    d = spec.d_raw
    # class means separated by exactly `delta` along the diagonal direction
    half = spec.delta / (2.0 * math.sqrt(d))
    mean_pos = np.full(d, half)
    mean_neg = np.full(d, -half)

    num_pos_bags = int(round(spec.positive_fraction * spec.num_bags))
    bags: list[Bag] = []
    for b in range(spec.num_bags):
        positive = b < num_pos_bags
        if isinstance(spec.instances_per_bag, int):
            k = spec.instances_per_bag
        else:
            lo, hi = spec.instances_per_bag
            k = int(rng.integers(lo, hi + 1))
        n_pos = math.ceil(spec.rho * k) if positive else 0
        flags = np.zeros(k, dtype=bool)
        flags[:n_pos] = True
        rng.shuffle(flags)
        means = np.where(flags[:, None], mean_pos, mean_neg)
        feats = _quantize_vec(means + spec.noise * rng.standard_normal((k, d)))
        label = np.array([0.0, 1.0]) if positive else np.array([1.0, 0.0])
        bags.append(Bag(id=f"bag{b:04d}", features=feats, label=label,
                        latent_positive=flags))
    return Dataset(bags=bags, d_raw=d)


def save_dataset(ds: Dataset, path) -> None:
    """Write the line-oriented JSON format: manifest line, then one record
    per bag with features at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        manifest = {"d_raw": ds.d_raw, "C": NUM_CLASSES, "count": len(ds.bags)}
        fh.write(json.dumps(manifest) + "\n")
        for bag in ds.bags:
            record = {
                "id": bag.id,
                "label": [float(v) for v in bag.label],
                "features": [[_quantize(v) for v in row] for row in bag.features],
            }
            fh.write(json.dumps(record) + "\n")


def _manifest_int(manifest: dict, key: str, minimum: int) -> int:
    value = manifest[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DatasetParseError(
            f"manifest {key!r} must be an integer >= {minimum}, got {value!r}", 1
        )
    return value


# a tab and every character `str.splitlines` breaks a line on
_ID_BREAKS = frozenset("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def _parse_record(raw: str, lineno: int, d_raw: int) -> Bag:
    try:
        rec = json.loads(raw)
        bag_id = rec["id"]
        features = np.asarray(rec["features"])
        label = np.asarray(rec["label"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetParseError(f"bad record: {exc}", lineno) from exc
    if not isinstance(bag_id, str):
        raise DatasetParseError(f"bag id must be a string, got {bag_id!r}", lineno)
    if not _ID_BREAKS.isdisjoint(bag_id):  # it would break the export table
        raise DatasetParseError(
            f"bag id {bag_id!r} holds a tab or a line break", lineno)
    for name, arr in (("features", features), ("label", label)):
        if arr.dtype.kind not in "iuf":
            raise DatasetParseError(f"{name} must be numeric, got {arr.dtype}", lineno)
    try:
        bag = Bag(id=bag_id, features=features, label=label)
    except ValueError as exc:
        raise DatasetParseError(str(exc), lineno) from exc
    if bag.features.shape[1] != d_raw:
        raise DatasetParseError(
            f"feature length {bag.features.shape[1]} != d_raw={d_raw}", lineno)
    return bag


# Bytes per read of a dataset file. With Python's 8 KiB default, reading a
# large file line by line costs more than one whole read; at 1 MiB it does not.
_READ_BUFFER = 1 << 20


def _lines(fh, digest):
    """(line number, text) for each line of a binary file, numbered as
    `str.splitlines` numbers the whole decoded text. Each newline-ended piece
    is decoded and split on its own: no UTF-8 sequence holds a newline byte,
    and every separator (`\\r\\n` included) ends inside the piece it closes.
    Invalid UTF-8 is reported on line 1 + the newline bytes before it. Each
    piece read is fed to `digest`."""
    lineno = 0
    for newlines_before, piece in enumerate(fh):
        digest.update(piece)
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetParseError(
                f"not UTF-8: {exc.reason}", newlines_before + 1) from exc
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def _parse_manifest(raw: str) -> tuple[int, int]:
    """(d_raw, count) of the manifest line, whose C must be 2."""
    try:
        manifest = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise DatasetParseError(f"bad manifest: {exc}", 1) from exc
    if not isinstance(manifest, dict):
        raise DatasetParseError("manifest must be a JSON object", 1)
    for key in ("d_raw", "C", "count"):
        if key not in manifest:
            raise DatasetParseError(f"manifest missing {key!r}", 1)
    d_raw = _manifest_int(manifest, "d_raw", 1)
    if _manifest_int(manifest, "C", NUM_CLASSES) != NUM_CLASSES:
        raise DatasetParseError(f"manifest 'C' must be 2, got {manifest['C']}", 1)
    return d_raw, _manifest_int(manifest, "count", 0)


def _parse_dataset(path, digest) -> Dataset:
    """Parse a dataset file one line at a time, feeding every byte read to
    `digest`; raises the DatasetParseError that `load_dataset` names."""
    bags: list[Bag] = []
    first_lines: dict[str, int] = {}  # bag id -> line of its record
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _lines(fh, digest)
        first = next(lines, None)
        if first is None:
            raise DatasetParseError("missing manifest", 1)
        d_raw, count = _parse_manifest(first[1])
        for lineno, raw in lines:
            if lineno > count + 1:
                raise DatasetParseError(
                    f"trailing data: manifest promises {count} records", lineno)
            bag = _parse_record(raw, lineno, d_raw)
            if bag.id in first_lines:
                raise DatasetParseError(f"repeated bag id {bag.id!r} (first on line "
                                        f"{first_lines[bag.id]})", lineno)
            first_lines[bag.id] = lineno
            bags.append(bag)
    if len(bags) < count:
        raise DatasetParseError(
            f"truncated file: manifest promises {count} records, found {len(bags)}",
            len(bags) + 2,
        )
    return Dataset(bags=bags, d_raw=d_raw)


# The sidecar `<dataset>.cache`: every bag's rows as raw little-endian
# float64, bag by bag; a JSON index (format version, d_raw, C, ids, labels
# and row counts); a trailer holding the index's length and the SHA-256 of
# the dataset bytes it was parsed from; and last the SHA-256 of all before it.
_SIDECAR_VERSION = 1
_ROW = np.dtype("<f8")
_TRAILER = struct.Struct("<Q32s")
_CHECKSUM = hashlib.sha256().digest_size


def _file_digest(path) -> bytes:
    digest = hashlib.sha256()
    buf = bytearray(_READ_BUFFER)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.digest()


def _read_sidecar(path, cache: Path) -> Dataset | None:
    """The dataset `cache` holds if it is whole and was written from the
    current bytes of `path`; None in any other case."""
    tail = _TRAILER.size + _CHECKSUM
    try:
        with open(cache, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < tail:
                return None
            fh.seek(size - tail)
            trailer, checksum = fh.read(_TRAILER.size), fh.read(_CHECKSUM)
            index_size, source = _TRAILER.unpack(trailer)
            rows_size = size - tail - index_size
            # lengths are checked against the file before anything is allocated
            if rows_size < 0 or rows_size % _ROW.itemsize or source != _file_digest(path):
                return None
            # one read into an anonymous mapping, whose pages go back to the
            # system once the dataset is dropped; a heap block this large can
            # stay behind, and the next load's may not fit where it was
            rows = np.empty(0, _ROW)
            if rows_size:
                rows = np.frombuffer(mmap.mmap(-1, rows_size), _ROW)
            fh.seek(0)
            fh.readinto(rows)  # a short read fails the checksum
            index = fh.read(index_size)
    except OSError:
        return None
    check = hashlib.sha256(rows)
    check.update(index)
    check.update(trailer)
    if check.digest() != checksum:
        return None
    try:
        index = json.loads(index)
        if index["version"] != _SIDECAR_VERSION:
            return None
        d_raw, bags, start = index["d_raw"], [], 0
        for bag_id, label, k in zip(index["ids"], index["labels"], index["counts"],
                                    strict=True):
            features = rows[start:start + k * d_raw].reshape(k, d_raw)
            bags.append(Bag(id=bag_id, features=features, label=label))
            start += k * d_raw
        return Dataset(bags=bags, d_raw=d_raw)
    except (ValueError, TypeError, KeyError):  # only a forged index gets here
        return None


def _write_sidecar(dataset: Dataset, source: bytes, path, cache: Path) -> None:
    """Write the sidecar of a dataset parsed from the file `path`, whose bytes
    have the SHA-256 `source`: to a unique temporary file beside `cache` that
    replaces it once whole, readable by whoever may read `path`. Where that
    cannot be written, no sidecar and no temporary file is left, and the next
    load parses the text again."""
    index = json.dumps({
        "version": _SIDECAR_VERSION, "d_raw": dataset.d_raw, "C": NUM_CLASSES,
        "ids": [bag.id for bag in dataset.bags],
        "labels": [bag.label.tolist() for bag in dataset.bags],
        "counts": [len(bag) for bag in dataset.bags],
    }).encode("utf-8")
    trailer = _TRAILER.pack(len(index), source)
    check = hashlib.sha256()
    try:
        fd, partial = tempfile.mkstemp(prefix=cache.name + ".", suffix=".partial",
                                       dir=cache.parent)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            os.chmod(partial, os.stat(path).st_mode & 0o666)
            rows = (np.ascontiguousarray(bag.features, dtype=_ROW) for bag in dataset.bags)
            for part in chain(rows, (index, trailer)):  # no copy of all rows at once
                check.update(part)
                fh.write(part)
            fh.write(check.digest())
        os.replace(partial, cache)
    except OSError:  # a full disk, say: the load succeeds without a sidecar
        pass
    finally:
        with suppress(OSError):  # gone once it has replaced the sidecar
            os.unlink(partial)


def load_dataset(path) -> Dataset:
    """Load a dataset file. Its sidecar `<path>.cache` is read when it holds
    the file's current bytes; otherwise the text is parsed one line at a time
    and the sidecar is written anew. Either way the result is the same.
    Raises DatasetParseError (with line number) on malformed, truncated or
    non-finite input, a record that contradicts the manifest or a repeated
    bag id. Of several faults, the first in file order is reported."""
    cache = Path(f"{os.fspath(path)}.cache")
    dataset = _read_sidecar(path, cache)
    if dataset is None:
        digest = hashlib.sha256()
        dataset = _parse_dataset(path, digest)
        _write_sidecar(dataset, digest.digest(), path, cache)
    return dataset


def _allocate(total: int, fractions) -> list[int]:
    # largest-remainder allocation; ties broken by split order
    raw = [total * f for f in fractions]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(
        range(len(fractions)), key=lambda i: (-(raw[i] - counts[i]), i)
    )
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def split_dataset(ds: Dataset, fractions, seed: int):
    """Stratified (by hard bag label) split into train/val/test by three
    fractions, non-negative and summing to 1, as `TrainConfig` checks them.
    Strata smaller than the number of non-empty splits get a best-effort
    assignment with a warning.
    """
    rng = np.random.default_rng(seed)
    strata: dict[int, list[Bag]] = {}
    for bag in ds.bags:
        strata.setdefault(int(np.argmax(bag.label)), []).append(bag)

    parts: tuple[list[Bag], list[Bag], list[Bag]] = ([], [], [])
    wanted = sum(1 for f in fractions if f > 0)
    for cls in sorted(strata):
        members = strata[cls]
        order = rng.permutation(len(members))
        if len(members) < wanted:
            warnings.warn(
                f"stratum {cls} has {len(members)} bags for {wanted} splits; "
                "assigning best-effort"
            )
        counts = _allocate(len(members), fractions)
        start = 0
        for part, c in zip(parts, counts):
            part.extend(members[i] for i in order[start:start + c])
            start += c
    return tuple(Dataset(bags=part, d_raw=ds.d_raw) for part in parts)
