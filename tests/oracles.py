"""Reference implementations and invariants the tests check the package
against; the package itself never calls them."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from coupledmil.augment import _draw_mask, augment_pair
from coupledmil.bagdata import Dataset, DatasetParseError, partition_pseudobags
from coupledmil.distill import (
    TeacherBranch,
    convert_confidence,
    distill_step,
    naive_pseudolabel_step,
    noisy_augment,
    normalize_attention,
)
from coupledmil.gradcore import (
    LOG_FLOOR,
    Adam,
    Param,
    cross_entropy,
    linear_backward,
    linear_forward,
    softmax_rows,
)
from coupledmil.metrics import MetricError, _validate_binary
from coupledmil.milnet import BagForwardTrace, GatedAttention, MilModel
from coupledmil.orchestrator import embed_instances
from coupledmil.seeding import rng_stream


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    per_param: dict = field(default_factory=dict)
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def grad_check(loss_fn: Callable[[], float], params: Sequence[Param],
               step: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `loss_fn()` must run the full forward+backward pass, accumulating
    gradients into `params`, and return the scalar loss. Gradients are zeroed
    here before the analytic call; parameter values are restored exactly
    after each probe.
    """
    params = list(params)
    for p in params:
        p.grad[:] = 0.0
    loss_fn()
    analytic = [p.grad.copy() for p in params]

    per_param: dict[str, float] = {}
    worst_name = ""
    worst_err = 0.0
    for i, (p, a) in enumerate(zip(params, analytic)):
        name = p.name or f"param{i}"
        err_max = 0.0
        for idx in np.ndindex(p.value.shape):
            orig = p.value[idx]
            p.value[idx] = orig + step
            lp = loss_fn()
            p.value[idx] = orig - step
            lm = loss_fn()
            p.value[idx] = orig
            numeric = (lp - lm) / (2.0 * step)
            ana = a[idx]
            # denominator floored at 1e-5: below that, central differences
            # are dominated by roundoff (~1e-11), not by gradient error
            scale = max(abs(ana), abs(numeric), 1e-5)
            err_max = max(err_max, abs(ana - numeric) / scale)
        per_param[name] = err_max
        if err_max >= worst_err:
            worst_err = err_max
            worst_name = name
    return GradCheckReport(worst_err, worst_name, per_param, tolerance)


def _check_distribution(v: np.ndarray, name: str) -> None:
    if (v < 0).any():
        raise ValueError(f"{name} has negative entries")
    if not abs(v.sum() - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"{name} does not sum to 1 (sum={v.sum()!r})")


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum_c p_c log(p_c / q_c) of two distributions."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"kl_divergence: length mismatch {p.size} vs {q.size}")
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    # zero-probability terms of p drop out; both logs are clamped at LOG_FLOOR
    terms = np.where(p > 0, p * (np.log(np.maximum(p, LOG_FLOOR))
                                 - np.log(np.maximum(q, LOG_FLOOR))), 0.0)
    return max(float(terms.sum()), 0.0)


def pairwise_auc(scores, labels) -> float:
    """Brute-force concordance: mean over all positive/negative pairs of
    [pos > neg] + 0.5 [pos == neg]. O(P*N); the cross-check for roc_auc."""
    scores, labels = _validate_binary(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise MetricError(
            f"pairwise_auc undefined: {pos.size} positive / {neg.size} negative labels"
        )
    total = 0.0
    for p in pos:
        total += float((p > neg).sum()) + 0.5 * float((p == neg).sum())
    return total / (pos.size * neg.size)


def views_of_own_arena(model: MilModel) -> bool:
    """Every Param of `model` is a view into its arena, and the arena holds
    exactly their values in checkpoint order."""
    flat = np.concatenate([p.value.ravel() for p in model.all_params])
    return (all(np.shares_memory(p.value, model.arena.value)
                and np.shares_memory(p.grad, model.arena.grad)
                for p in model.all_params)
            and np.array_equal(flat, model.arena.value[0]))


class ReferenceAdam:
    """Bias-corrected Adam stepping one tensor at a time: the per-tensor
    loop that the optimizer over arena runs must reproduce bit for bit."""

    def __init__(self, params: Sequence[Param], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            p.value -= self.lr * (self.m[i] / c1) / (np.sqrt(self.v[i] / c2) + self.eps)
            p.grad[:] = 0.0


def bag_backward(model: MilModel, trace: BagForwardTrace, dlogits: np.ndarray,
                 train_embedder: bool = False) -> None:
    """Backward pass of `model.bag_forward`: accumulate the head's gradients,
    and the embedder's too with `train_embedder`."""
    dh = model.head_backward(trace.bag_rep, trace.agg_cache, dlogits, train_embedder)
    if train_embedder:
        model.embedder.backward(trace.embed_cache, dh)


def student_params(student: MilModel) -> list[Param]:
    """The two arena runs the embedder phase trains: embedder and classifier."""
    return [student.embedder_group, student.classifier_group]


def embedded_rows(model: MilModel, bags) -> np.ndarray:
    """A fresh buffer filled by `embed_instances`: the rows both training
    phases take for `bags`."""
    h_all = np.empty((sum(len(bag) for bag in bags), model.config.embed_dim))
    embed_instances(model, bags, h_all)
    return h_all


def teacher_targets(teacher: TeacherBranch, x: np.ndarray) -> np.ndarray:
    """The frozen teacher's class probabilities for the instance rows `x`:
    the `p_t` argument of the steps."""
    h_t, _ = teacher.model.embedder.forward(x)
    return softmax_rows(teacher.classifier.logits(h_t))


def bag_attention(teacher: TeacherBranch, x_bag: np.ndarray) -> np.ndarray:
    """The teacher's attention over the instances of one bag."""
    h, _ = teacher.model.embedder.forward(x_bag)
    _, a, _ = teacher.aggregator.forward(h, teacher.classifier)
    return a


def reference_naive_step(student: MilModel, x: np.ndarray, p_t: np.ndarray,
                         optimizer: Adam) -> float:
    """The naive step written out on its own: the student's mean
    cross-entropy on the clean rows `x` against the teacher's argmax class
    (ties to the lower class index), with an explicit one-hot target."""
    n = x.shape[0]
    pseudo = np.argmax(p_t, axis=1)
    y = np.zeros_like(p_t)
    y[np.arange(n), pseudo] = 1.0

    h_s, emb_cache = student.embedder.forward(x)
    q = softmax_rows(student.classifier.logits(h_s))
    loss = float(-np.log(np.maximum(q[np.arange(n), pseudo], LOG_FLOOR)).mean())

    dh = student.classifier.backward(h_s, (q - y) / n)
    student.embedder.backward(emb_cache, dh)
    optimizer.step()
    return loss


def reference_embedder_phase(train_bags, model: MilModel, config,
                             rng_noise: np.random.Generator,
                             rng_distill: np.random.Generator):
    """The embedder phase with the teacher run where each value is used: one
    forward per bag for its attention, and one per batch for the targets.
    Returns the student and the per-pass mean losses; `model` is not written."""
    teacher = TeacherBranch.from_model(model)
    student = teacher.model.copy()
    xs, confs = [], []
    for bag in train_bags:
        a_norm = normalize_attention(bag_attention(teacher, bag.features))
        confs.append(convert_confidence(a_norm, config.beta)
                     if config.mode == "confidence" else np.ones_like(a_norm))
        xs.append(bag.features)
    x_all, conf_all = np.concatenate(xs), np.concatenate(confs)
    n = len(x_all)
    optimizer = Adam(student_params(student), config.embedder_lr)
    losses = []
    for _ in range(config.embedder_passes):
        order = rng_distill.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            xb = x_all[sel]
            p_t = teacher_targets(teacher, xb)
            if config.mode == "naive":
                loss = naive_pseudolabel_step(student, xb, p_t, optimizer)
            else:
                loss = distill_step(student, p_t,
                                    noisy_augment(xb, config.noise_scale,
                                                  config.noise_dropout, rng_noise),
                                    conf_all[sel], optimizer)
            total += loss * len(sel)
        losses.append(total / n)
    return student, losses


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def reference_head_step(model: MilModel, h: np.ndarray, label: np.ndarray) -> float:
    """One classifier step's forward and backward through the head, written
    with the plain expressions that the head's in-place code must reproduce
    bit for bit: gated attention, bag classifier and softmax, cross-entropy
    against `label`. Accumulates the head's gradients; returns the loss."""
    agg, clf = model.aggregator, model.classifier
    gated = isinstance(agg, GatedAttention)
    if gated:
        t = np.tanh(h @ agg.v1.value.T)
        z = h @ agg.v2.value.T
        e = np.exp(-np.abs(z))
        s = np.where(z >= 0, 1.0, e) / (1.0 + e)
        g = t * s
        a = _softmax((g @ agg.w.value).ravel())
    else:
        _, a, _ = agg.forward(h, clf)
    bag_rep = a[None, :] @ h
    probs = _softmax(linear_forward(bag_rep, clf.w, clf.b).ravel())
    loss = cross_entropy(probs, label)
    d_bag = linear_backward(bag_rep, clf.w, clf.b, (probs - label)[None, :])
    if gated:
        da = (h @ d_bag.T).ravel()
        de = a * (da - float(a @ da))
        agg.w.grad += (g.T @ de)[:, None]
        dg = np.outer(de, agg.w.value.ravel())
        agg.v1.grad += (dg * s * (1.0 - t * t)).T @ h
        agg.v2.grad += (dg * t * s * (1.0 - s)).T @ h
    return loss


def reference_classifier_phase(train_bags, h_all: np.ndarray, model: MilModel,
                               config) -> list[float]:
    """The classifier phase as one loop that draws while it trains: the run's
    `augment` and `shuffle` streams opened for this phase, `augment_pair` on
    the embedded rows of each pair, `reference_head_step` and a per-tensor
    Adam. `h_all` holds the rows of `train_bags` in bag order. Returns the
    per-epoch mean losses."""
    rng_augment = rng_stream(config.seed, "augment")
    rng_shuffle = rng_stream(config.seed, "shuffle")
    base, start = [], 0
    for bag in train_bags:
        base.append((h_all[start:start + len(bag)], bag.label))
        start += len(bag)
    optimizer = ReferenceAdam(model.head_params, config.classifier_lr)
    losses = []
    for _ in range(config.classifier_epochs):
        samples = list(base)
        if config.augment and len(base) >= 2:
            for _ in range(int(round(config.augment_ratio * len(base)))):
                i = int(rng_augment.integers(len(base)))
                j = int(rng_augment.integers(len(base) - 1))
                if j >= i:
                    j += 1
                samples.append(augment_pair(base[i], base[j], config, rng_augment))
        total = 0.0
        for idx in rng_shuffle.permutation(len(samples)):
            total += reference_head_step(model, *samples[idx])
            optimizer.step()
        losses.append(total / len(samples))
    return losses


def whole_text_lines(blob: bytes) -> list[tuple[int, str]]:
    """The dataset loader's (line number, text) pairs as one whole read gives
    them: the decoded file's `splitlines()`, numbered from 1. Invalid UTF-8
    raises DatasetParseError on line 1 + the newline bytes before it."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"not UTF-8: {exc.reason}",
                                blob[:exc.start].count(b"\n") + 1) from exc
    return list(enumerate(text.splitlines(), start=1))


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bitwise equality on ids, labels, and features."""
    if (a.d_raw, a.num_classes, len(a)) != (b.d_raw, b.num_classes, len(b)):
        return False
    for x, y in zip(a.bags, b.bags):
        if x.id != y.id or not np.array_equal(x.label, y.label):
            return False
        if not np.array_equal(x.features, y.features):
            return False
    return True


def encoded_bag(source: int, k: int, label) -> tuple[np.ndarray, np.ndarray]:
    """A `(features, label)` bag whose row i is (source, i): the rows an
    augmenter keeps can be read back from its output with `decoded_rows`."""
    features = np.column_stack([np.full(k, float(source)), np.arange(k, dtype=np.float64)])
    return features, np.array(label, dtype=np.float64)


def decoded_rows(features: np.ndarray, source: int) -> np.ndarray:
    """The row indices, in output order, that `features` took from the
    `encoded_bag` of `source`."""
    return features[features[:, 0] == source, 1].astype(np.int64)


def replay_mixup_slots(k_a: int, k_b: int, lam: float, n: int,
                       rng: np.random.Generator):
    """The pseudo-bags `mixup_bags` keeps from sources of k_a and k_b rows
    when called with `rng`, replayed on a copy of it: (groups kept from A,
    groups kept from B), in fused order. `rng` is not advanced."""
    rng = copy.deepcopy(rng)
    groups_a = partition_pseudobags(range(k_a), n, rng)
    groups_b = partition_pseudobags(range(k_b), n, rng)
    mask = _draw_mask(n, lam, rng)
    return ([g for g, m in zip(groups_a, mask) if m == 1],
            [g for g, m in zip(groups_b, mask) if m == 0])
