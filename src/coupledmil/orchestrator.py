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
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .augment import AugmentConfig, augment_pair
from .bagdata import Bag, ConfigError, Dataset, features_matrix, split_dataset
from .distill import (
    NoiseConfig,
    StudentBranch,
    TeacherBranch,
    convert_confidence,
    distill_step,
    naive_pseudolabel_step,
    noisy_augment,
    normalize_attention,
)
from .gradcore import Adam, cross_entropy
from .metrics import EvalResult, evaluate_scores
from .milnet import BACKBONES, POSITIVE_CLASS, MilModel, ModelConfig
from .seeding import rng_stream, subseed

FINE_TUNE_MODES = ("naive", "vanilla", "confidence")

CHECKPOINT_MAGIC = b"MILCKPT1"
CHECKPOINT_VERSION = 1

_BACKBONE_CODES = {name: i for i, name in enumerate(BACKBONES)}
_TANH_CODE = 0  # the header's activation code; hidden layers are always tanh


class CheckpointError(ValueError):
    pass


class NonFiniteLossError(ArithmeticError):
    """A training phase produced a non-finite epoch loss."""


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
             "iterations": 0, "alpha_w": 0, "augment_ratio": 0, "embed_dim": 1,
             "attn_dim": 1, "seed": 0}
_ABOVE_ZERO = ("classifier_lr", "embedder_lr", "beta")
# TrainConfig field behind each AugmentConfig and NoiseConfig field
_AUGMENT_FIELDS = {"n": "augment_n", "alpha_beta": "augment_alpha",
                   "gamma": "augment_gamma", "label_mode": "augment_label_mode"}
_NOISE_FIELDS = {"scale": "noise_scale", "dropout": "noise_dropout"}


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
    alpha_w: float = 1.0
    augment: bool = False
    augment_ratio: float = 1.0
    augment_n: int = 4
    augment_alpha: float = 1.0
    augment_gamma: float = 0.5
    augment_label_mode: str = "lambda_weighted"
    noise_scale: float = 0.1
    noise_dropout: float = 0.1
    hidden: tuple[int, ...] = (64,)
    embed_dim: int = 32
    attn_dim: int = 16
    warm_start: bool = False
    full_scale: bool = False  # restore the 200-epoch classifier-phase protocol
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
        if self.backbone not in BACKBONES:
            raise ConfigError(
                f"unknown backbone {self.backbone!r}; expected one of {BACKBONES}"
            )
        if self.mode not in FINE_TUNE_MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}; expected one of {FINE_TUNE_MODES}"
            )
        for name, low in _AT_LEAST.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        for name in _ABOVE_ZERO:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if min(self.hidden, default=1) < 1:
            raise ConfigError(f"hidden sizes must be >= 1, got {list(self.hidden)}")
        if (len(self.fractions) != 3 or not all(f >= 0 for f in self.fractions)
                or not abs(sum(self.fractions) - 1.0) <= 1e-9
                or self.fractions[0] <= 0):
            raise ConfigError(
                "fractions must be three non-negative values summing to 1 with a "
                f"positive train fraction, got {self.fractions}"
            )
        self.augment_config = self._sub_config(AugmentConfig, _AUGMENT_FIELDS)
        self.noise_config = self._sub_config(NoiseConfig, _NOISE_FIELDS)

    def _sub_config(self, cls, names: dict):
        """Build `cls` from the fields named in `names`. Its errors name its
        own fields, so the ConfigError adds ours with their values."""
        try:
            return cls(**{sub: getattr(self, name) for sub, name in names.items()})
        except ValueError as exc:
            given = ", ".join(f"{name}={getattr(self, name)!r}" for name in names.values())
            raise ConfigError(f"{given}: {exc}") from exc

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
        return 200 if self.full_scale else self.classifier_epochs


@dataclass
class RunReport:
    """Loss traces and per-iteration test metrics for one seeded run.

    `wall_clock_seconds` is informational only and deliberately excluded from
    the serialized form: reports must be byte-identical across reruns."""

    config: dict
    seed: int
    evaluations: list = field(default_factory=list)
    classifier_losses: list = field(default_factory=list)
    embedder_losses: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "classifier_losses": self.classifier_losses,
            "embedder_losses": self.embedder_losses,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            config=data["config"],
            seed=data["seed"],
            evaluations=data["evaluations"],
            classifier_losses=data["classifier_losses"],
            embedder_losses=data["embedder_losses"],
        )


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


def _embedded_bag(model: MilModel, bag) -> Bag:
    h, _ = model.embedder.forward(features_matrix(bag))
    return Bag(id=bag.id, features=h, label=bag.label.copy())


def run_classifier_phase(train_bags, model: MilModel, config: TrainConfig,
                         rng_augment: np.random.Generator,
                         rng_shuffle: np.random.Generator) -> list[float]:
    """Train aggregator + classifier on (optionally augmented) bags with
    cross-entropy; the embedder is frozen for the whole phase. Returns the
    per-epoch mean training losses."""
    train_bags = list(train_bags)
    if not train_bags:
        raise ValueError("classifier phase needs a non-empty training set")

    frozen = params_checksum([model.embedder_group])
    # embed once: selecting instances commutes with per-instance embedding,
    # so augmentation can run directly in representation space
    embedded = [_embedded_bag(model, bag) for bag in train_bags]
    base_samples = [(features_matrix(b), b.label) for b in embedded]

    aug_cfg = config.augment_config
    optimizer = Adam([model.head_group], config.classifier_lr)
    losses: list[float] = []
    for _ in range(config.effective_classifier_epochs):
        samples = list(base_samples)
        if config.augment and len(embedded) >= 2:
            n_aug = int(round(config.augment_ratio * len(embedded)))
            for _ in range(n_aug):
                i = int(rng_augment.integers(len(embedded)))
                j = int(rng_augment.integers(len(embedded) - 1))
                if j >= i:
                    j += 1
                fused = augment_pair(embedded[i], embedded[j], aug_cfg, rng_augment)
                samples.append((features_matrix(fused), fused.label))
        order = rng_shuffle.permutation(len(samples))
        total = 0.0
        for idx in order:
            h, label = samples[idx]
            bag_rep, _, logits, probs, agg_cache = model.head_forward(h)
            total += cross_entropy(probs, label)
            dlogits = (probs - label)[None, :]
            model.head_backward(h, bag_rep, agg_cache, dlogits, input_grad=False)
            optimizer.step()
        losses.append(_checked_loss("classifier", len(losses) + 1, total / len(samples)))

    if params_checksum([model.embedder_group]) != frozen:
        raise RuntimeError("classifier phase modified the frozen embedder")
    return losses


def _instance_pool(teacher: TeacherBranch, train_bags, mode: str, beta: float):
    xs, confs = [], []
    for bag in train_bags:
        x_bag = features_matrix(bag)
        a_norm = normalize_attention(teacher.bag_attention(x_bag))
        conf = convert_confidence(a_norm, beta) if mode == "confidence" \
            else np.ones_like(a_norm)
        xs.append(x_bag)
        confs.append(conf)
    return np.concatenate(xs), np.concatenate(confs)


def run_embedder_phase(train_bags, model: MilModel, config: TrainConfig,
                       rng_noise: np.random.Generator,
                       rng_distill: np.random.Generator) -> list[float]:
    """Fine-tune the embedder against a frozen teacher snapshot of the
    current model; the student's embedder is then copied into the model's,
    its classifier is discarded. Returns per-pass mean losses."""
    train_bags = list(train_bags)
    if not train_bags:
        raise ValueError("embedder phase needs a non-empty training set")

    teacher = TeacherBranch.from_model(model)
    frozen = params_checksum(teacher.params)
    student = StudentBranch.from_teacher(teacher)

    x_all, conf_all = _instance_pool(teacher, train_bags, config.mode, config.beta)
    n = x_all.shape[0]
    noise_cfg = config.noise_config
    optimizer = Adam(student.params, config.embedder_lr)

    losses: list[float] = []
    for _ in range(config.embedder_passes):
        order = rng_distill.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            xb = x_all[sel]
            if config.mode == "naive":
                loss = naive_pseudolabel_step(teacher, student, xb, optimizer)
            else:
                loss = distill_step(teacher, student, xb,
                                    noisy_augment(xb, noise_cfg, rng_noise),
                                    conf_all[sel], config.alpha_w, optimizer)
            total += loss * len(sel)
        losses.append(_checked_loss("embedder", len(losses) + 1, total / n))

    if params_checksum(teacher.params) != frozen:
        raise RuntimeError("embedder phase modified the frozen teacher")
    model.embedder_group.value[:] = student.model.embedder_group.value
    return losses


def evaluate(model: MilModel, bags, threshold: float = 0.5) -> EvalResult:
    """Test-set metrics; the score is the positive-class probability."""
    bags = list(bags)
    scores = [float(model.bag_forward(features_matrix(bag)).probs[POSITIVE_CLASS])
              for bag in bags]
    labels = [int(np.argmax(bag.label)) for bag in bags]
    return evaluate_scores(np.array(scores), np.array(labels), threshold)


def split_for_run(dataset: Dataset, config: TrainConfig):
    """The train/val/test split a run with this config would use."""
    return split_dataset(dataset, config.fractions, subseed(config.seed, "split"))


def run_training(dataset: Dataset, config: TrainConfig) -> tuple[RunReport, MilModel]:
    """Full run: baseline classifier phase, then `iterations` repetitions of
    embedder phase + fresh classifier phase, evaluating on the test split
    after every classifier phase."""
    started = time.perf_counter()
    train, _, test = split_for_run(dataset, config)
    if not train.bags:
        raise ConfigError(f"fractions {list(config.fractions)} leave no training bag "
                          f"among the dataset's {len(dataset.bags)}")

    rng_init = rng_stream(config.seed, "init")
    rng_augment = rng_stream(config.seed, "augment")
    rng_noise = rng_stream(config.seed, "noise")
    rng_shuffle = rng_stream(config.seed, "shuffle")
    rng_distill = rng_stream(config.seed, "distill")

    model_cfg = ModelConfig(
        d_raw=dataset.d_raw,
        hidden=config.hidden,
        embed_dim=config.embed_dim,
        attn_dim=config.attn_dim,
        num_classes=dataset.num_classes,
        backbone=config.backbone,
    )
    model = MilModel.build(model_cfg, rng_init)
    report = RunReport(config=config.to_dict(), seed=config.seed)

    def record_eval(iteration: int) -> None:
        result = evaluate(model, test.bags, config.threshold)
        report.evaluations.append({"iteration": iteration, **result.to_dict()})

    report.classifier_losses.append(
        run_classifier_phase(train.bags, model, config, rng_augment, rng_shuffle)
    )
    record_eval(0)

    for iteration in range(1, config.iterations + 1):
        report.embedder_losses.append(
            run_embedder_phase(train.bags, model, config, rng_noise, rng_distill)
        )
        if not config.warm_start:
            model.init_head(rng_init)
        report.classifier_losses.append(
            run_classifier_phase(train.bags, model, config, rng_augment, rng_shuffle)
        )
        record_eval(iteration)

    report.wall_clock_seconds = time.perf_counter() - started
    return report, model


def save_checkpoint(model: MilModel, path) -> None:
    """Binary little-endian checkpoint: magic, version, layer dims, then the
    parameter arena as raw float64 values. Bit-exact round trip."""
    cfg = model.config
    dims = model.embedder.dims
    header = struct.pack(
        "<6I",
        _BACKBONE_CODES[cfg.backbone],
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

    backbones = {v: k for k, v in _BACKBONE_CODES.items()}
    if backbone_code not in backbones:
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
            backbone=backbones[backbone_code],
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
