"""Embedder fine-tuning via teacher-student distillation.

The frozen teacher (embedder + classifier + aggregator from the classifier
phase) guides a fully learnable student. The per-instance loss is the
student's cross-entropy against the teacher's argmax class, on noised inputs
x' for the vanilla and confidence modes, scaled by an attention-derived
confidence weight |2a-1|^beta in the confidence mode.
"""

from __future__ import annotations

import numpy as np

from .gradcore import LOG_FLOOR, Adam, softmax_rows
from .milnet import MilModel


def normalize_attention(scores) -> np.ndarray:
    """Min-max normalize a bag's attention scores to [0, 1].

    Constant scores (mean pooling's 1/K) map to all ones so the downstream
    confidence weight degenerates to the constant 1.
    """
    a = np.asarray(scores, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("normalize_attention: empty input")
    if not np.isfinite(a).all():
        raise ValueError("normalize_attention: scores must be finite")
    lo, hi = a.min(), a.max()
    if hi == lo:
        return np.ones_like(a)
    return (a - lo) / (hi - lo)


def convert_confidence(a_norm, beta: float):
    """Confidence weight |2a - 1|**beta: 1 at both attention extremes, 0 at
    maximal uncertainty a = 0.5. A scalar takes the array power as well, so it
    equals its element of any array bit for bit (SIMD and libm pow can differ)."""
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    a = np.asarray(a_norm, dtype=np.float64)
    if not ((a >= 0) & (a <= 1)).all():
        raise ValueError("normalized attention must lie in [0, 1]")
    out = np.abs(2.0 * np.atleast_1d(a) - 1.0) ** beta
    return float(out[0]) if a.ndim == 0 else out


def noisy_augment(x: np.ndarray, scale: float, dropout: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise of standard deviation `scale`, then each
    feature zeroed with probability `dropout`."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    if scale > 0:
        out += scale * rng.standard_normal(x.shape)
    if dropout > 0:
        out[rng.random(x.shape) < dropout] = 0.0
    return out


class TeacherBranch:
    """Frozen snapshot of the trained backbone: its classifier gives the
    distillation targets, its per-bag attention the confidence weights. Its
    parameters are never written; the student is a plain copy of its model."""

    def __init__(self, model: MilModel):
        self.model = model
        self.classifier = model.classifier
        self.aggregator = model.aggregator

    @classmethod
    def from_model(cls, model: MilModel) -> "TeacherBranch":
        return cls(model.copy())

    @property
    def params(self):
        return [self.model.arena]


def distill_step(student: MilModel, p_t: np.ndarray, x: np.ndarray,
                 confidence: np.ndarray, optimizer: Adam) -> float:
    """One confidence-weighted distillation update on the student.

    `p_t` holds the frozen teacher's class probabilities of the clean
    instances whose (possibly noised) copies are `x`. The target of row i is
    the teacher's argmax class c_i, ties to the lower class index. Batch loss
    is mean_i confidence_i * -log student(x_i)[c_i]: the KL against a one-hot
    target. Returns the batch loss.
    """
    n = x.shape[0]
    rows = np.arange(n)
    pseudo = np.argmax(p_t, axis=1)
    h_s, emb_cache = student.embedder.forward(x)
    q = softmax_rows(student.classifier.forward(h_s))
    loss = float((confidence * -np.log(np.maximum(q[rows, pseudo], LOG_FLOOR))).mean())

    # dlogits = confidence * (q - onehot) / n, in place on q
    q[rows, pseudo] -= 1.0
    q *= confidence[:, None]
    q /= n
    student.embedder.backward(emb_cache, student.classifier.backward(h_s, q))
    optimizer.step()
    return loss


def naive_pseudolabel_step(student: MilModel, x: np.ndarray, p_t: np.ndarray,
                           optimizer: Adam) -> float:
    """Baseline fine-tuning: `distill_step` on the clean rows `x` with unit
    weights."""
    return distill_step(student, p_t, x, np.ones(x.shape[0]), optimizer)
