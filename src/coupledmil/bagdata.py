"""Bag/instance data model, synthetic bag generator, pseudo-bag partitioning,
and the line-oriented JSON dataset format.

Synthetic bags emulate the weakly-labeled regime: a bag is positive iff at
least one of its instances was drawn from the positive blob, and only the
bag-level label is ever visible to training.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np


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
    C classes. `latent_positive` is per-instance generator-side ground truth,
    present only for synthetic data and never serialized."""

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


@dataclass
class Dataset:
    bags: list[Bag]
    d_raw: int
    num_classes: int

    def __len__(self) -> int:
        return len(self.bags)


def partition_pseudobags(bag, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Uniformly random partition of a bag's instance indices into n groups
    with sizes differing by <= 1, larger groups first. `bag` is a Bag or its
    feature rows: only its length is read.

    Bags smaller than n yield singleton groups plus empty ones; indices are
    sorted within each group.
    """
    if n < 1:
        raise ValueError(f"pseudo-bag count must be >= 1, got {n}")
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
    return Dataset(bags=bags, d_raw=d, num_classes=2)


def save_dataset(ds: Dataset, path) -> None:
    """Write the line-oriented JSON format: manifest line, then one record
    per bag with features at 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        manifest = {"d_raw": ds.d_raw, "C": ds.num_classes, "count": len(ds.bags)}
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


def _parse_record(raw: str, lineno: int, d_raw: int, num_classes: int) -> Bag:
    try:
        rec = json.loads(raw)
        bag_id = rec["id"]
        features = np.asarray(rec["features"])
        label = np.asarray(rec["label"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DatasetParseError(f"bad record: {exc}", lineno) from exc
    if not isinstance(bag_id, str):
        raise DatasetParseError(f"bag id must be a string, got {bag_id!r}", lineno)
    for name, arr in (("features", features), ("label", label)):
        if arr.dtype.kind not in "iuf":
            raise DatasetParseError(f"{name} must be numeric, got {arr.dtype}", lineno)
    try:
        bag = Bag(id=bag_id, features=features, label=label)
    except ValueError as exc:
        raise DatasetParseError(str(exc), lineno) from exc
    if bag.label.size != num_classes:
        raise DatasetParseError(
            f"label length {bag.label.size} != C={num_classes}", lineno)
    if bag.features.shape[1] != d_raw:
        raise DatasetParseError(
            f"feature length {bag.features.shape[1]} != d_raw={d_raw}", lineno)
    return bag


# Bytes per read of a dataset file. With Python's 8 KiB default, reading a
# large file line by line costs more than one whole read; at 1 MiB it does not.
_READ_BUFFER = 1 << 20


def _lines(fh):
    """(line number, text) for each line of a binary file, numbered as
    `str.splitlines` numbers the whole decoded text. Each newline-ended piece
    is decoded and split on its own: no UTF-8 sequence holds a newline byte,
    and every separator (`\\r\\n` included) ends inside the piece it closes.
    Invalid UTF-8 is reported on line 1 + the newline bytes before it."""
    lineno = 0
    for newlines_before, piece in enumerate(fh):
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetParseError(
                f"not UTF-8: {exc.reason}", newlines_before + 1) from exc
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def _parse_manifest(raw: str) -> tuple[int, int, int]:
    """(d_raw, C, count) of the manifest line."""
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
    num_classes = _manifest_int(manifest, "C", 2)
    if num_classes != 2:  # the package is binary; class 1 is the positive class
        raise DatasetParseError(f"manifest 'C' must be 2, got {num_classes}", 1)
    return d_raw, num_classes, _manifest_int(manifest, "count", 0)


def load_dataset(path) -> Dataset:
    """Parse a dataset file one line at a time; raises DatasetParseError
    (with line number) on malformed, truncated or non-finite input, a record
    that contradicts the manifest or a repeated bag id. Of several faults,
    the first in file order is reported."""
    bags: list[Bag] = []
    first_lines: dict[str, int] = {}  # bag id -> line of its record
    with open(path, "rb", buffering=_READ_BUFFER) as fh:
        lines = _lines(fh)
        first = next(lines, None)
        if first is None:
            raise DatasetParseError("missing manifest", 1)
        d_raw, num_classes, count = _parse_manifest(first[1])
        for lineno, raw in lines:
            if lineno > count + 1:
                raise DatasetParseError(
                    f"trailing data: manifest promises {count} records", lineno)
            bag = _parse_record(raw, lineno, d_raw, num_classes)
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
    return Dataset(bags=bags, d_raw=d_raw, num_classes=num_classes)


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
    """Stratified (by hard bag label) split into train/val/test.

    Fractions must be non-negative and sum to 1. Strata smaller than the
    number of non-empty splits get a best-effort assignment with a warning.
    """
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3:
        raise ValueError(f"expected 3 fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions):
        raise ValueError(f"fractions must be non-negative: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1: {fractions}")

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
    return tuple(
        Dataset(bags=part, d_raw=ds.d_raw, num_classes=ds.num_classes)
        for part in parts
    )
