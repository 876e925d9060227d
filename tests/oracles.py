"""Reference implementations and invariants the tests check the package
against; the package itself never calls them."""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from coupledmil import bagdata
from coupledmil.augment import _draw_mask, augment_pair
from coupledmil.bagdata import Dataset, DatasetParseError, partition_pseudobags
from coupledmil.distill import convert_confidence, normalize_attention
from coupledmil.gradcore import LOG_FLOOR, Param, softmax_rows
from coupledmil.metrics import MetricError, _validate_binary
from coupledmil.milnet import GatedAttention, MilModel
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


def cross_entropy(pred, target) -> float:
    """-sum_c y_c log(p_c) with p clamped below at LOG_FLOOR; soft targets
    allowed. The classifier phase computes it in place on its step's
    probabilities."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ValueError(f"cross_entropy: length mismatch {p.size} vs {y.size}")
    return float(-(y * np.log(np.maximum(p, LOG_FLOOR))).sum())


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

    def moments_finite(self) -> bool:
        return all(np.isfinite(moment).all() for moment in self.m + self.v)


def aggregator_input_grad(model: MilModel, agg_cache, d_bag: np.ndarray) -> np.ndarray:
    """The gradient of the bag representation a @ h with respect to the
    instance embeddings h, given its upstream gradient `d_bag`, as plain
    expressions. The package never forms it, since no bag loss reaches its
    embedder. Fixed pooling's weights a carry no gradient."""
    if not isinstance(model.aggregator, GatedAttention):
        a = agg_cache
        return a[:, None] * d_bag
    h, t, s, _, a = agg_cache
    v1, v2, w = (p.value for p in model.aggregator.params)
    da = (h @ d_bag.T).ravel()
    de = a * (da - a @ da)                  # the softmax Jacobian
    dg = de[:, None] * w.T
    du = dg * s * (1.0 - t * t)
    dv = dg * t * s * (1.0 - s)
    return a[:, None] * d_bag + du @ v1 + dv @ v2


def bag_backward(model: MilModel, x: np.ndarray, y: np.ndarray) -> float:
    """The cross-entropy of the bag x against the class distribution y, with
    every parameter's gradient accumulated through the full bag: the head's
    by the package's `head_backward`, and the embedder's by its
    `Embedder.backward` from `aggregator_input_grad`."""
    h, embed_cache = model.embedder.forward(x)
    bag_rep, _, probs, agg_cache = model.head_forward(h)
    loss = cross_entropy(probs, y)
    dlogits = (probs - y)[None, :]
    model.head_backward(bag_rep, agg_cache, dlogits)
    d_bag = dlogits @ model.classifier.w.value.T
    model.embedder.backward(embed_cache, aggregator_input_grad(model, agg_cache, d_bag))
    return loss


def embedded_rows(model: MilModel, bags) -> np.ndarray:
    """A fresh buffer filled by `embed_instances`: the rows both training
    phases take for `bags`."""
    h_all = np.empty((sum(len(bag) for bag in bags), model.config.embed_dim))
    embed_instances(model, bags, h_all)
    return h_all


def teacher_targets(teacher: MilModel, x: np.ndarray) -> np.ndarray:
    """The teacher model's class probabilities for the instance rows `x`:
    the `p_t` argument of the reference steps."""
    h_t, _ = teacher.embedder.forward(x)
    return softmax_rows(teacher.classifier.forward(h_t))


def teacher_classes(teacher: MilModel, x: np.ndarray) -> np.ndarray:
    """The teacher model's argmax class of each instance row of `x`, ties to
    the lower class index: the `target` argument of the steps."""
    return np.argmax(teacher_targets(teacher, x), axis=1)


def bag_attention(teacher: MilModel, x_bag: np.ndarray) -> np.ndarray:
    """The teacher model's attention over the instances of one bag."""
    h, _ = teacher.embedder.forward(x_bag)
    _, a, _ = teacher.aggregator.forward(h, teacher.classifier)
    return a


def _plain_embed(embedder, x: np.ndarray) -> list[np.ndarray]:
    """The embedder's forward as plain expressions: every layer's input,
    then the output (a hidden layer's output is its tanh)."""
    hs = [x]
    last = len(embedder.layers) - 1
    for i, layer in enumerate(embedder.layers):
        z = hs[-1] @ layer.w.value + layer.b.value
        hs.append(np.tanh(z) if i < last else z)
    return hs


def reference_distill_step(student: MilModel, x: np.ndarray, p_t: np.ndarray,
                           weights: np.ndarray, optimizer) -> float:
    """The distillation step written out on its own: the `weights`-weighted
    mean cross-entropy of the student's fixed classifier on the rows `x`
    against the teacher's argmax class (ties to the lower class index) with
    an explicit one-hot target, backpropagated through the classifier's
    weights W as the upstream gradient dlogits W^T and then layer by layer
    through the embedder, then one optimizer step. Returns the loss."""
    n = x.shape[0]
    rows = np.arange(n)
    pseudo = np.argmax(p_t, axis=1)
    y = np.zeros_like(p_t)
    y[rows, pseudo] = 1.0

    hs = _plain_embed(student.embedder, x)
    clf = student.classifier
    z = hs[-1] @ clf.w.value + clf.b.value
    e = np.exp(z - z.max(axis=1, keepdims=True))
    q = e / e.sum(axis=1, keepdims=True)
    loss = float((weights * -np.log(np.maximum(q[rows, pseudo], LOG_FLOOR))).mean())

    g = (weights[:, None] * (q - y) / n) @ clf.w.value.T
    layers = student.embedder.layers  # layer j's input is hs[j]
    for j in reversed(range(len(layers))):
        layers[j].w.grad += hs[j].T @ g
        layers[j].b.grad += g.sum(axis=0, keepdims=True)
        if j > 0:  # hs[j] is a hidden layer's tanh
            g = (g @ layers[j].w.value.T) * (1.0 - hs[j] * hs[j])
    optimizer.step()
    return loss


def reference_embedder_phase(train_bags, model: MilModel, config,
                             rng_noise: np.random.Generator,
                             rng_distill: np.random.Generator):
    """The embedder phase written out with its own step: `model` is the
    teacher, run where each value is used (one forward per bag for its
    attention, one per batch for the targets); the student is a copy of it
    whose embedder trains under its fixed classifier. The vanilla and
    confidence rows are noised as `x + scale z`, then zeroed where a uniform
    draw made after z falls below the dropout; `reference_distill_step`
    steps them, and a per-tensor Adam over the student's embedder tensors.
    Returns the student and the per-pass mean losses; `model` is not
    written."""
    teacher, student = model, copy.deepcopy(model)
    xs, confs = [], []
    for bag in train_bags:
        a_norm = normalize_attention(bag_attention(teacher, bag.features))
        confs.append(convert_confidence(a_norm, config.beta)
                     if config.mode == "confidence" else np.ones_like(a_norm))
        xs.append(bag.features)
    x_all, conf_all = np.concatenate(xs), np.concatenate(confs)
    n = len(x_all)
    optimizer = ReferenceAdam(student.embedder.params, config.embedder_lr)
    losses = []
    for _ in range(config.embedder_passes):
        order = rng_distill.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            xb = x_all[sel]
            p_t = teacher_targets(teacher, xb)
            if config.mode != "naive":
                if config.noise_scale > 0:
                    xb = xb + config.noise_scale * rng_noise.standard_normal(xb.shape)
                if config.noise_dropout > 0:
                    mask = rng_noise.random(xb.shape) < config.noise_dropout
                    xb = np.where(mask, 0.0, xb)
            total += reference_distill_step(student, xb, p_t, conf_all[sel],
                                            optimizer) * len(sel)
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
    probs = _softmax((bag_rep @ clf.w.value + clf.b.value).ravel())
    loss = cross_entropy(probs, label)
    dlogits = (probs - label)[None, :]
    clf.w.grad += bag_rep.T @ dlogits
    clf.b.grad += dlogits.sum(axis=0, keepdims=True)
    d_bag = dlogits @ clf.w.value.T
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
    if (a.d_raw, len(a)) != (b.d_raw, len(b)):
        return False
    for x, y in zip(a.bags, b.bags):
        if x.id != y.id or not np.array_equal(x.label, y.label):
            return False
        if not np.array_equal(x.features, y.features):
            return False
    return True


def dataset_bits(ds: Dataset):
    """Everything a loaded dataset holds, features and labels as raw bytes
    with their dtype and shape: equal values are equal bits."""
    return (ds.d_raw, [
        (bag.id, bag.features.dtype.str, bag.features.shape, bag.features.tobytes(),
         bag.label.dtype.str, bag.label.tobytes(), bag.latent_positive)
        for bag in ds.bags])


def parsed(path) -> Dataset:
    """The dataset the text parser makes of a file, with no sidecar read or
    written."""
    return bagdata._parse_dataset(path, hashlib.sha256())


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
