"""Two-phase training loop: classifier phase (frozen embedder), embedder
phase (frozen teacher head), repeated for a configurable number of
iterations, with checkpointing, seeded determinism, and a serializable run
report.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .augment import augment_pair
from .bagdata import ConfigError, Dataset, features_matrix, split_dataset
from .distill import (
    TeacherBranch,
    convert_confidence,
    distill_step,
    naive_pseudolabel_step,
    noisy_augment,
    normalize_attention,
)
from .gradcore import Adam, cross_entropy, softmax_rows
from .metrics import EvalResult, evaluate_scores
from .milnet import BACKBONES, POSITIVE_CLASS, BagForwardTrace, MilModel, ModelConfig
from .seeding import rng_stream, subseed

FINE_TUNE_MODES = ("naive", "vanilla", "confidence")

CHECKPOINT_MAGIC = b"MILCKPT1"
CHECKPOINT_VERSION = 1

_TANH_CODE = 0  # the header's activation code; hidden layers are always tanh


class CheckpointError(ValueError):
    pass


class NonFiniteLossError(ArithmeticError):
    """A model produced non-finite numbers: an epoch loss, the embedder
    parameters an embedder phase hands back, or a bag's embedding, attention
    or class probabilities, in training, evaluation or the attention
    export."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


# annotation of a TrainConfig field -> (type check, what the value must be)
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple))
                        and all(map(_is_int, v)), "a list of integers"),
    "tuple[float, float, float]": (lambda v: isinstance(v, (list, tuple))
                                   and all(map(_is_number, v)), "a list of numbers"),
}
_AT_LEAST = {"classifier_epochs": 1, "batch_size": 1, "embedder_passes": 0,
             "iterations": 0, "augment_ratio": 0, "augment_n": 1,
             "noise_scale": 0, "embed_dim": 1, "attn_dim": 1, "seed": 0}
_ABOVE_ZERO = ("classifier_lr", "embedder_lr", "beta", "augment_alpha")
_UNIT_INTERVAL = ("augment_gamma", "noise_dropout")
_CHOICES = {"backbone": BACKBONES, "mode": FINE_TUNE_MODES}


@dataclass
class TrainConfig:
    """Every option of a training run. All fields are checked when the config
    is built, so a bad value raises ConfigError before any phase starts."""

    backbone: str = "gated_attention"
    classifier_epochs: int = 50
    classifier_lr: float = 2e-4
    embedder_lr: float = 1e-5
    batch_size: int = 100
    embedder_passes: int = 3
    iterations: int = 1
    mode: str = "confidence"
    beta: float = 6.0
    augment: bool = False
    augment_ratio: float = 1.0
    augment_n: int = 4
    augment_alpha: float = 1.0
    augment_gamma: float = 0.5
    noise_scale: float = 0.1
    noise_dropout: float = 0.1
    hidden: tuple[int, ...] = (64,)
    embed_dim: int = 32
    attn_dim: int = 16
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            is_type, expected = _FIELD_TYPES[f.type]
            if not is_type(value):
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        self.hidden = tuple(self.hidden)
        self.fractions = tuple(float(f) for f in self.fractions)
        if self.backbone == "abmil":  # common alias for the gated-attention backbone
            self.backbone = "gated_attention"
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(
                    f"unknown {name} {getattr(self, name)!r}; expected one of {choices}")
        for name, low in _AT_LEAST.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        for name in _ABOVE_ZERO:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        for name in _UNIT_INTERVAL:
            if not 0 <= getattr(self, name) <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {getattr(self, name)!r}")
        if min(self.hidden, default=1) < 1:
            raise ConfigError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if (len(self.fractions) != 3 or not all(f >= 0 for f in self.fractions)
                or not abs(sum(self.fractions) - 1.0) <= 1e-9
                or self.fractions[0] <= 0):
            raise ConfigError(
                "fractions must be three non-negative values summing to 1 with a "
                f"positive train fraction, got {self.fractions}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
        return cls(**data)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @property
    def effective_classifier_epochs(self) -> int:
        """`classifier_epochs`, under the name perfbench's worker reads."""
        return self.classifier_epochs


@dataclass
class RunReport:
    """Loss traces and per-iteration test metrics for one seeded run. It
    holds no wall-clock time, so reruns serialize byte-identically."""

    config: dict
    seed: int
    evaluations: list = field(default_factory=list)
    classifier_losses: list = field(default_factory=list)
    embedder_losses: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls(**json.loads(text))


def params_checksum(params) -> str:
    """SHA-256 over the raw little-endian parameter bytes."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    return h.hexdigest()


def _checked_loss(phase: str, epoch: int, loss: float) -> float:
    if not math.isfinite(loss):
        raise NonFiniteLossError(
            f"{phase} phase: non-finite loss {loss!r} in epoch {epoch}")
    return loss


def _row_slices(bags):
    """Each bag with its slice of the rows that stack all bags' instances in
    bag order."""
    start = 0
    for bag in bags:
        yield bag, slice(start, start + len(bag))
        start += len(bag)


def _check_finite(source: str, bag_id: str, *arrays: np.ndarray) -> None:
    """Finite but huge weights overflow in a forward pass run under
    `np.errstate`; report it as one NonFiniteLossError naming the bag."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteLossError(f"{source} maps bag {bag_id!r} to non-finite values")


def embed_instances(model: MilModel, bags, h_all: np.ndarray) -> None:
    """Fill `h_all` with the embedding of every instance of `bags`, in bag
    order: one embedder forward per bag. Both phases read these rows, so the
    run refills them whenever the embedder changes."""
    for bag, rows in _row_slices(bags):
        with np.errstate(over="ignore", invalid="ignore"):
            h, _ = model.embedder.forward(features_matrix(bag))
        _check_finite("classifier phase: the embedder", bag.id, h)
        h_all[rows] = h


def forward_bag(model: MilModel, bag_id: str, x: np.ndarray) -> BagForwardTrace:
    """`model.bag_forward(x)` for evaluation and the attention export, with
    its embedding, attention and class probabilities checked to be finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        trace = model.bag_forward(x)
    _check_finite("the model", bag_id,
                  trace.instance_reps, trace.attention, trace.probs)
    return trace


class ClassifierSchedule:
    """Every classifier-phase epoch's shuffled `(rows, label)` samples,
    drawn once per run by `classifier_schedule`. `rows` selects a sample's
    instances from the rows that stack all training bags' instances in bag
    order (`embed_instances`): a bag's slice, or a mix-up's row indices.

    A long augmented run holds many epochs, so each is kept as a few arrays
    rather than per-sample objects: its step order over the n bags (0 to
    n - 1) and m mix-ups (n to n + m - 1); the mix-ups' rows concatenated,
    in the smallest unsigned dtype that indexes every row, with m + 1
    bounds; and their m x C label matrix. Iterating gives each epoch's
    samples as a list, built when the epoch is reached."""

    def __init__(self, bases: list[tuple[slice, np.ndarray]], epochs: list[tuple]):
        self.bases = bases
        self.epochs = epochs

    def __iter__(self):
        n = len(self.bases)
        for order, rows, bounds, labels in self.epochs:
            b = bounds.tolist()
            yield [self.bases[k] if k < n else (rows[b[k - n]:b[k - n + 1]], labels[k - n])
                   for k in order.tolist()]


def classifier_schedule(train_bags, config: TrainConfig) -> ClassifierSchedule:
    """The classifier phase's samples, drawn from the run's `augment` and
    `shuffle` streams: for every epoch, each bag's `(rows, label)` plus, with
    `augment`, the mix-ups of random bag pairs, shuffled. The augmenter only
    counts and selects rows, so it runs on row indices, and every embedder
    state steps through the same draws."""
    train_bags = list(train_bags)
    if not train_bags:
        raise ValueError("classifier phase needs a non-empty training set")
    rng_augment = rng_stream(config.seed, "augment")
    rng_shuffle = rng_stream(config.seed, "shuffle")
    bases = [(rows, bag.label) for bag, rows in _row_slices(train_bags)]
    row_dtype = np.min_scalar_type(bases[-1][0].stop - 1)
    index_bags = [(np.arange(rows.start, rows.stop, dtype=row_dtype), label)
                  for rows, label in bases]
    n = len(bases)
    n_aug = int(round(config.augment_ratio * n)) if config.augment and n >= 2 else 0
    order_dtype = np.min_scalar_type(n + n_aug - 1)
    epochs = []
    for _ in range(config.classifier_epochs):
        mixups = []
        for _ in range(n_aug):
            i = int(rng_augment.integers(n))
            j = int(rng_augment.integers(n - 1))
            if j >= i:
                j += 1
            mixups.append(augment_pair(index_bags[i], index_bags[j], config, rng_augment))
        rows = [r for r, _ in mixups]
        epochs.append((rng_shuffle.permutation(n + n_aug).astype(order_dtype),
                       np.concatenate([np.empty(0, row_dtype), *rows]),
                       np.cumsum([0, *map(len, rows)]),
                       np.array([y for _, y in mixups])))
    return ClassifierSchedule(bases, epochs)


def run_classifier_phase(schedule: ClassifierSchedule, h_all: np.ndarray,
                         model: MilModel, config: TrainConfig) -> list[float]:
    """Train aggregator + classifier with cross-entropy on the samples of
    `classifier_schedule`, one Adam step per sample; the embedder is frozen
    for the whole phase, and `h_all` holds its rows (`embed_instances`).
    Returns the per-epoch mean training losses."""
    frozen = params_checksum([model.embedder_group])
    optimizer = Adam([model.head_group], config.classifier_lr)
    losses: list[float] = []
    # a diverging step overflows mid-epoch; the epoch-loss check reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for samples in schedule:
            total = 0.0
            for rows, label in samples:
                bag_rep, _, probs, agg_cache = model.head_forward(h_all[rows])
                total += cross_entropy(probs, label)
                probs -= label                  # dlogits, in place
                model.head_backward(bag_rep, agg_cache, probs[None, :], input_grad=False)
                optimizer.step()
            losses.append(
                _checked_loss("classifier", len(losses) + 1, total / len(samples)))

    if params_checksum([model.embedder_group]) != frozen:
        raise RuntimeError("classifier phase modified the frozen embedder")
    return losses


def run_embedder_phase(train_bags, h_all: np.ndarray, model: MilModel,
                       config: TrainConfig, rng_noise: np.random.Generator,
                       rng_distill: np.random.Generator) -> list[float]:
    """Fine-tune the embedder against a frozen teacher snapshot of the
    current model; the student's embedder is then copied into the model's,
    its classifier is discarded. `h_all` holds the teacher's rows for
    `train_bags` (`embed_instances`), so its attention and class
    probabilities are computed once for the whole phase. Returns per-pass
    mean losses."""
    train_bags = list(train_bags)
    if not train_bags:
        raise ValueError("embedder phase needs a non-empty training set")

    teacher = TeacherBranch.from_model(model)
    frozen = params_checksum(teacher.params)
    student = teacher.model.copy()

    x_all = np.concatenate([features_matrix(bag) for bag in train_bags])
    n = x_all.shape[0]
    conf_all = np.ones(n)
    if config.mode == "confidence":  # vanilla and naive weigh every row by 1
        for _, rows in _row_slices(train_bags):
            _, a, _ = teacher.aggregator.forward(h_all[rows], teacher.classifier)
            conf_all[rows] = convert_confidence(normalize_attention(a), config.beta)
    p_all = softmax_rows(teacher.classifier.logits(h_all))
    optimizer = Adam([student.embedder_group, student.classifier_group],
                     config.embedder_lr)

    losses: list[float] = []
    # a diverging step overflows mid-pass; the pass-loss check reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(config.embedder_passes):
            order = rng_distill.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                sel = order[start:start + config.batch_size]
                xb = x_all[sel]
                if config.mode == "naive":
                    loss = naive_pseudolabel_step(student, xb, p_all[sel], optimizer)
                else:
                    loss = distill_step(student, p_all[sel],
                                        noisy_augment(xb, config.noise_scale,
                                                      config.noise_dropout, rng_noise),
                                        conf_all[sel], optimizer)
                total += loss * len(sel)
            losses.append(_checked_loss("embedder", len(losses) + 1, total / n))

    if params_checksum(teacher.params) != frozen:
        raise RuntimeError("embedder phase modified the frozen teacher")
    if not np.isfinite(student.embedder_group.value).all():
        raise NonFiniteLossError("embedder phase: non-finite embedder parameters")
    model.embedder_group.value[:] = student.embedder_group.value
    return losses


def evaluate(model: MilModel, bags, threshold: float = 0.5) -> EvalResult:
    """Test-set metrics; the score is the positive-class probability."""
    bags = list(bags)
    scores = [forward_bag(model, bag.id, features_matrix(bag)).probs[POSITIVE_CLASS]
              for bag in bags]
    labels = [int(np.argmax(bag.label)) for bag in bags]
    return evaluate_scores(np.array(scores), np.array(labels), threshold)


def split_for_run(dataset: Dataset, config: TrainConfig):
    """The train/val/test split a run with this config would use."""
    return split_dataset(dataset, config.fractions, subseed(config.seed, "split"))


def run_training(dataset: Dataset, config: TrainConfig) -> tuple[RunReport, MilModel]:
    """Full run: a classifier phase, then `iterations` repetitions of
    embedder phase + classifier phase, evaluating on the test split after
    every classifier phase. Each classifier phase starts from the run's
    initial head and steps through the one schedule the run draws, so
    iterations differ only in their embedder."""
    train, _, test = split_for_run(dataset, config)
    for name, split in (("training", train), ("test", test)):
        if not split.bags:
            raise ConfigError(f"fractions {list(config.fractions)} leave no {name} "
                              f"bag among the dataset's {len(dataset.bags)}")

    rng_noise = rng_stream(config.seed, "noise")
    rng_distill = rng_stream(config.seed, "distill")
    model_cfg = ModelConfig(
        d_raw=dataset.d_raw,
        hidden=config.hidden,
        embed_dim=config.embed_dim,
        attn_dim=config.attn_dim,
        num_classes=dataset.num_classes,
        backbone=config.backbone,
    )
    model = MilModel.build(model_cfg, rng_stream(config.seed, "init"))
    initial_head = model.head_group.value.copy()
    report = RunReport(config=config.to_dict(), seed=config.seed)

    # the training instances' rows under the current embedder, refilled in
    # place after every embedder phase; every classifier phase steps through
    # the same schedule
    h_all = np.empty((sum(map(len, train.bags)), config.embed_dim))
    schedule = classifier_schedule(train.bags, config)
    for iteration in range(config.iterations + 1):
        if iteration > 0:
            report.embedder_losses.append(
                run_embedder_phase(train.bags, h_all, model, config, rng_noise, rng_distill)
            )
            model.head_group.value[:] = initial_head
        embed_instances(model, train.bags, h_all)
        report.classifier_losses.append(run_classifier_phase(schedule, h_all, model, config))
        result = evaluate(model, test.bags, config.threshold)
        report.evaluations.append({"iteration": iteration, **asdict(result)})

    return report, model


def save_checkpoint(model: MilModel, path) -> None:
    """Binary little-endian checkpoint: magic, version, layer dims, then the
    parameter arena as raw float64 values. Bit-exact round trip."""
    cfg = model.config
    dims = model.embedder.dims
    header = struct.pack(
        "<6I",
        BACKBONES.index(cfg.backbone),
        _TANH_CODE,
        POSITIVE_CLASS,
        cfg.num_classes,
        cfg.attn_dim,
        len(dims),
    )
    header += struct.pack(f"<{len(dims)}I", *dims)
    blocks = np.ascontiguousarray(model.arena.value, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(header)
        fh.write(blocks)


def load_checkpoint(path) -> MilModel:
    """Inverse of `save_checkpoint`; raises CheckpointError on any file that
    `save_checkpoint` could not have written."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic bytes")
    off = len(CHECKPOINT_MAGIC)
    try:
        (version,) = struct.unpack_from("<I", blob, off)
        off += 4
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
        backbone_code, act_code, positive_class, num_classes, attn_dim, ndims = (
            struct.unpack_from("<6I", blob, off)
        )
        off += 24
        dims = struct.unpack_from(f"<{ndims}I", blob, off)
        off += 4 * ndims
    except struct.error as exc:
        raise CheckpointError(f"checkpoint truncated in its header: {exc}") from exc

    if backbone_code >= len(BACKBONES):
        raise CheckpointError(f"unknown backbone code {backbone_code}")
    if act_code != _TANH_CODE or positive_class != POSITIVE_CLASS:
        raise CheckpointError(
            f"activation code {act_code} and positive class {positive_class}: "
            f"only {_TANH_CODE} (tanh) and {POSITIVE_CLASS} are written"
        )
    if ndims < 2:
        raise CheckpointError(f"checkpoint declares {ndims} embedder dims, need >= 2")
    try:
        cfg = ModelConfig(
            d_raw=dims[0],
            hidden=tuple(dims[1:-1]),
            embed_dim=dims[-1],
            attn_dim=attn_dim,
            num_classes=num_classes,
            backbone=BACKBONES[backbone_code],
        )
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint header: {exc}") from exc
    # checked before the model is built, so a corrupt header cannot make it
    # allocate more than the file holds
    need = 8 * cfg.num_params
    if off + need > len(blob):
        raise CheckpointError("checkpoint truncated")
    if off + need < len(blob):
        raise CheckpointError("trailing bytes in checkpoint")
    values = np.frombuffer(blob, dtype="<f8", offset=off)
    if not np.isfinite(values).all():
        raise CheckpointError("checkpoint holds non-finite parameters")
    model = MilModel(cfg)
    model.arena.value[0] = values
    return model
