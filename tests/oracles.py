"""Reference implementations and invariants the tests check the package
against; the package itself never calls them."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from coupledmil.bagdata import DatasetParseError
from coupledmil.distill import (
    TeacherBranch,
    convert_confidence,
    distill_step,
    naive_pseudolabel_step,
    noisy_augment,
    normalize_attention,
)
from coupledmil.gradcore import Adam, Param, kl_rows, softmax_rows
from coupledmil.metrics import MetricError, _validate_binary
from coupledmil.milnet import BagForwardTrace, MilModel
from coupledmil.orchestrator import embed_instances


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
    return float(kl_rows(p[None, :], q[None, :])[0])


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
    dh = model.head_backward(trace.instance_reps, trace.bag_rep, trace.agg_cache,
                             dlogits, train_embedder)
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


def teacher_targets(teacher: TeacherBranch, x: np.ndarray):
    """The frozen teacher's embeddings of the instance rows `x` and its class
    probabilities for them: the `h_t` and `p_t` arguments of the steps."""
    h_t, _ = teacher.model.embedder.forward(x)
    return h_t, softmax_rows(teacher.classifier.logits(h_t))


def bag_attention(teacher: TeacherBranch, x_bag: np.ndarray) -> np.ndarray:
    """The teacher's attention over the instances of one bag."""
    h, _ = teacher.model.embedder.forward(x_bag)
    _, a, _ = teacher.aggregator.forward(h, teacher.classifier)
    return a


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
            h_t, p_t = teacher_targets(teacher, xb)
            if config.mode == "naive":
                loss = naive_pseudolabel_step(student, xb, p_t, optimizer)
            else:
                loss = distill_step(student, h_t, p_t,
                                    noisy_augment(xb, config.noise_config, rng_noise),
                                    conf_all[sel], config.alpha_w, optimizer)
            total += loss * len(sel)
        losses.append(total / n)
    return student, losses


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
