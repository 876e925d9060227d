"""Embedder fine-tuning via teacher-student distillation.

The frozen teacher (embedder + classifier + aggregator from the classifier
phase) guides a fully learnable student. Per-instance losses combine a
consistency term KL(teacher(x) || student(x')) on noised inputs with a
weight-similarity term tethering the student classifier to the teacher's,
optionally scaled by an attention-derived confidence weight |2a-1|^beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradcore import LOG_FLOOR, Adam, kl_rows, softmax_rows
from .milnet import MilModel


@dataclass
class NoiseConfig:
    scale: float = 0.1    # additive Gaussian noise
    dropout: float = 0.1  # per-feature zeroing probability

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"noise scale must be >= 0, got {self.scale}")
        if not (0.0 <= self.dropout <= 1.0):
            raise ValueError(f"dropout must be in [0, 1], got {self.dropout}")


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


def noisy_augment(x: np.ndarray, noise: NoiseConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian noise followed by independent feature dropout."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy()
    if noise.scale > 0:
        out += noise.scale * rng.standard_normal(x.shape)
    if noise.dropout > 0:
        out[rng.random(x.shape) < noise.dropout] = 0.0
    return out


class TeacherBranch:
    """Frozen snapshot of the trained backbone; provides distillation targets
    and per-bag attention scores. Its parameters are never written."""

    def __init__(self, model: MilModel):
        self.model = model
        self.embedder = model.embedder
        self.classifier = model.classifier
        self.aggregator = model.aggregator

    @classmethod
    def from_model(cls, model: MilModel) -> "TeacherBranch":
        return cls(model.copy())

    @property
    def params(self):
        return [self.model.arena]

    def embed(self, x: np.ndarray) -> np.ndarray:
        h, _ = self.embedder.forward(x)
        return h

    def instance_probs(self, x: np.ndarray) -> np.ndarray:
        return softmax_rows(self.classifier.logits(self.embed(x)))

    def bag_attention(self, x_bag: np.ndarray) -> np.ndarray:
        _, a, _ = self.aggregator.forward(self.embed(x_bag), self.classifier)
        return a


class StudentBranch:
    """Learnable copy of the teacher: the embedder to be fine-tuned plus the
    hidden instance-level classifier. Its aggregator is never used."""

    def __init__(self, model: MilModel):
        self.model = model
        self.embedder = model.embedder
        self.classifier = model.classifier

    @classmethod
    def from_teacher(cls, teacher: TeacherBranch) -> "StudentBranch":
        return cls(teacher.model.copy())

    @property
    def params(self):
        return [self.model.embedder_group, self.model.classifier_group]


def distill_step(teacher: TeacherBranch, student: StudentBranch,
                 x: np.ndarray, x_noised: np.ndarray, confidence: np.ndarray,
                 alpha_w: float, optimizer: Adam) -> float:
    """One confidence-weighted distillation update on the student.

    Batch loss is mean_i confidence_i * (L_c,i + alpha_w * L_w,i), with
    L_c,i = KL(teacher(x_i) || student(x_noised_i)) and L_w,i the same KL
    against the student's classifier on the teacher's embedding of x_i; unit
    confidence recovers the plain teacher-student step. Returns the batch loss.
    """
    n = x.shape[0]
    h_t = teacher.embed(x)                   # constants: teacher is frozen
    p_t = softmax_rows(teacher.classifier.logits(h_t))

    h_s, emb_cache = student.embedder.forward(x_noised)
    z_c = student.classifier.logits(h_s)
    q_c = softmax_rows(z_c)
    z_w = student.classifier.logits(h_t)
    q_w = softmax_rows(z_w)

    l_c = kl_rows(p_t, q_c)
    l_w = kl_rows(p_t, q_w)
    loss = float((confidence * (l_c + alpha_w * l_w)).mean())

    dz_c = (confidence / n)[:, None] * (q_c - p_t)
    dz_w = (alpha_w * confidence / n)[:, None] * (q_w - p_t)
    dh_s = student.classifier.backward(h_s, dz_c)
    student.classifier.backward(h_t, dz_w, input_grad=False)  # h_t is constant
    student.embedder.backward(emb_cache, dh_s)
    optimizer.step()
    return loss


def naive_pseudolabel_step(teacher: TeacherBranch, student: StudentBranch,
                           x: np.ndarray, optimizer: Adam) -> float:
    """Baseline fine-tuning: hard argmax pseudo-labels from the teacher
    (ties to the lower class index), plain cross-entropy on the student."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    p_t = teacher.instance_probs(x)
    pseudo = np.argmax(p_t, axis=1)
    y = np.zeros_like(p_t)
    y[np.arange(n), pseudo] = 1.0

    h_s, emb_cache = student.embedder.forward(x)
    z = student.classifier.logits(h_s)
    q = softmax_rows(z)
    loss = float(-np.log(np.maximum(q[np.arange(n), pseudo], LOG_FLOOR)).mean())

    dz = (q - y) / n
    dh = student.classifier.backward(h_s, dz)
    student.embedder.backward(emb_cache, dh)
    optimizer.step()
    return loss
