"""Two-phase training loop: classifier phase (frozen embedder), embedder
phase (frozen teacher head), repeated for a configurable number of
iterations, with checkpointing, seeded determinism, and a serializable run
report.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .augment import AugmentConfig, augment_pair
from .bagdata import Bag, Dataset, features_matrix, split_dataset
from .distill import (
    DistillBatch,
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
from .milnet import BACKBONES, MilModel, ModelConfig
from .seeding import rng_stream, subseed

FINE_TUNE_MODES = ("naive", "vanilla", "confidence")

CHECKPOINT_MAGIC = b"MILCKPT1"
CHECKPOINT_VERSION = 1

_BACKBONE_CODES = {name: i for i, name in enumerate(BACKBONES)}
_ACTIVATION_CODES = {"tanh": 0, "sigmoid": 1}


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
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
        self.hidden = tuple(int(h) for h in self.hidden)
        self.fractions = tuple(float(f) for f in self.fractions)
        if self.backbone == "abmil":  # common alias for the gated-attention backbone
            self.backbone = "gated_attention"
        if self.backbone not in BACKBONES:
            raise ValueError(
                f"unknown backbone {self.backbone!r}; expected one of {BACKBONES}"
            )
        if self.mode not in FINE_TUNE_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {FINE_TUNE_MODES}"
            )
        if self.classifier_lr <= 0 or self.embedder_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.classifier_epochs < 1:
            raise ValueError(f"classifier_epochs must be >= 1, got {self.classifier_epochs}")
        if self.embedder_passes < 0:
            raise ValueError(f"embedder_passes must be >= 0, got {self.embedder_passes}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if (len(self.fractions) != 3 or not all(f >= 0 for f in self.fractions)
                or not abs(sum(self.fractions) - 1.0) <= 1e-9
                or self.fractions[0] <= 0):
            raise ValueError(
                "fractions must be three non-negative values summing to 1 with a "
                f"positive train fraction, got {self.fractions}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        for key in data:
            if key not in known:
                raise ValueError(f"unknown config key: {key!r}")
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

    def augment_config(self) -> AugmentConfig:
        return AugmentConfig(
            n=self.augment_n,
            alpha_beta=self.augment_alpha,
            gamma=self.augment_gamma,
            label_mode=self.augment_label_mode,
        )

    def noise_config(self) -> NoiseConfig:
        return NoiseConfig(scale=self.noise_scale, dropout=self.noise_dropout)


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
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

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

    frozen = params_checksum(model.embedder.params)
    # embed once: selecting instances commutes with per-instance embedding,
    # so augmentation can run directly in representation space
    embedded = [_embedded_bag(model, bag) for bag in train_bags]
    base_samples = [(features_matrix(b), b.label) for b in embedded]

    aug_cfg = config.augment_config()
    optimizer = Adam(model.head_params, config.classifier_lr)
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
            model.head_backward(h, bag_rep, agg_cache, dlogits)
            optimizer.step()
        losses.append(total / len(samples))

    if params_checksum(model.embedder.params) != frozen:
        raise RuntimeError("classifier phase modified the frozen embedder")
    return losses


def _instance_pool(teacher: TeacherBranch, train_bags, mode: str, beta: float):
    xs, confs, attns = [], [], []
    for bag in train_bags:
        x_bag = features_matrix(bag)
        a = teacher.bag_attention(x_bag)
        a_norm = normalize_attention(a)
        conf = convert_confidence(a_norm, beta) if mode == "confidence" \
            else np.ones_like(a_norm)
        xs.append(x_bag)
        attns.append(a_norm)
        confs.append(np.asarray(conf, dtype=np.float64))
    return np.concatenate(xs), np.concatenate(attns), np.concatenate(confs)


def run_embedder_phase(train_bags, model: MilModel, config: TrainConfig,
                       rng_noise: np.random.Generator,
                       rng_distill: np.random.Generator) -> list[float]:
    """Fine-tune the embedder against a frozen teacher snapshot of the
    current model; the student's embedder replaces the model's, its
    classifier is discarded. Returns per-pass mean losses."""
    train_bags = list(train_bags)
    if not train_bags:
        raise ValueError("embedder phase needs a non-empty training set")
    if config.mode not in FINE_TUNE_MODES:
        raise ValueError(f"unknown fine-tune mode {config.mode!r}")

    teacher = TeacherBranch.from_model(model)
    frozen = params_checksum(teacher.params)
    student = StudentBranch.from_teacher(teacher)

    x_all, attn_all, conf_all = _instance_pool(
        teacher, train_bags, config.mode, config.beta
    )
    n = x_all.shape[0]
    noise_cfg = config.noise_config()
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
                batch = DistillBatch(
                    instances=xb,
                    noised=noisy_augment(xb, noise_cfg, rng_noise),
                    attention=attn_all[sel],
                    confidence=conf_all[sel],
                )
                loss = distill_step(teacher, student, batch, config.alpha_w, optimizer)
            total += loss * len(sel)
        losses.append(total / n)

    if params_checksum(teacher.params) != frozen:
        raise RuntimeError("embedder phase modified the frozen teacher")
    model.embedder = student.embedder
    return losses


def evaluate(model: MilModel, bags, threshold: float = 0.5) -> EvalResult:
    """Test-set metrics; the score is the positive-class probability."""
    bags = list(bags)
    positive = model.config.positive_class
    scores = [float(model.bag_forward(features_matrix(bag)).probs[positive])
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
        raise ValueError("empty training split")

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
    """Binary little-endian checkpoint: magic, version, layer dims, then raw
    float64 parameter blocks in declaration order. Bit-exact round trip."""
    cfg = model.config
    dims = model.embedder.dims
    header = struct.pack(
        "<6I",
        _BACKBONE_CODES[cfg.backbone],
        _ACTIVATION_CODES[cfg.activation],
        cfg.positive_class,
        cfg.num_classes,
        cfg.attn_dim,
        len(dims),
    )
    header += struct.pack(f"<{len(dims)}I", *dims)
    blocks = b"".join(
        np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        for p in model.all_params
    )
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
    activations = {v: k for k, v in _ACTIVATION_CODES.items()}
    if backbone_code not in backbones or act_code not in activations:
        raise CheckpointError("unknown backbone or activation code")
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
            activation=activations[act_code],
            positive_class=positive_class,
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
    start = 0
    for p in model.all_params:
        p.value[:] = values[start:start + p.value.size].reshape(p.value.shape)
        start += p.value.size
    return model
