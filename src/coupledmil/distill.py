"""Embedder fine-tuning via teacher-student distillation.

The teacher is the model as the classifier phase left it. Its aggregator
and bag classifier stay fixed for the whole embedder phase, and the
model's own embedder, the student, fine-tunes under them in place. The
per-instance loss is the fixed classifier's cross-entropy on the student's
embedding against the teacher's argmax class, on noised inputs x' for the
vanilla and confidence modes, scaled by an attention-derived confidence
weight |2a-1|^beta in the confidence mode.
"""

from __future__ import annotations

import numpy as np

from .bagdata import row_slices
from .gradcore import LOG_FLOOR, Adam, softmax_rows
from .milnet import MilModel


def normalize_attention(scores) -> np.ndarray:
    """Min-max normalize a bag's attention scores to [0, 1].

    Constant scores (mean pooling's 1/K) map to all ones so the downstream
    confidence weight degenerates to the constant 1.
    """
    a = np.asarray(scores, dtype=np.float64).ravel()
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
    if scale > 0:
        out = rng.standard_normal(x.shape)
        out *= scale
        out += x                        # x + scale z: IEEE addition commutes
    else:
        out = x.copy()
    if dropout > 0:
        np.copyto(out, 0.0, where=rng.random(x.shape) < dropout)
    return out


class TeacherBranch:
    """The teacher's outputs for one embedder phase, read once from its
    embeddings before the embedder changes."""

    @classmethod
    def from_model(cls, model: MilModel, bags, h_all: np.ndarray,
                   config) -> tuple[np.ndarray, np.ndarray]:
        """The argmax class of every row of `h_all` under the model's
        classifier (ties to the lower class index), and each row's
        confidence weight: in the confidence mode the `convert_confidence`
        of its bag's normalized attention, else 1. `h_all` stacks the
        embeddings of the instances of `bags` in bag order."""
        conf = np.ones(len(h_all))
        if config.mode == "confidence":
            for _, rows in row_slices(bags):
                _, a, _ = model.aggregator.forward(h_all[rows], model.classifier)
                conf[rows] = convert_confidence(normalize_attention(a), config.beta)
        return np.argmax(softmax_rows(model.classifier.forward(h_all)), axis=1), conf


def distill_step(model: MilModel, target: np.ndarray, x: np.ndarray,
                 confidence: np.ndarray, optimizer: Adam) -> float:
    """One confidence-weighted distillation update of the model's embedder
    under its fixed classifier.

    `target` holds the teacher's argmax class c_i (ties to the lower class
    index) of the clean instances whose (possibly noised) copies are `x`.
    Batch loss is mean_i confidence_i * -log q(x_i)[c_i], q the classifier's
    softmax on the student's embedding: the KL against a one-hot target.
    Only the embedder's gradients are formed. Returns the batch loss.
    """
    n = x.shape[0]
    rows = np.arange(n)
    h, emb_cache = model.embedder.forward(x)
    q = softmax_rows(model.classifier.forward(h))
    # the loss on a copy of the target column, then dlogits in place on q,
    # in the plain expressions' order
    t = q[rows, target]
    np.maximum(t, LOG_FLOOR, out=t)
    np.log(t, out=t)
    np.negative(t, out=t)
    t *= confidence
    loss = float(np.add.reduce(t) / n)  # the mean of confidence * -log q[c]

    # dlogits = confidence * (q - onehot) / n, passed to the embedder as
    # dlogits W^T
    q[rows, target] -= 1.0
    q *= confidence[:, None]
    q /= n
    model.embedder.backward(emb_cache, q @ model.classifier.w.value.T)
    optimizer.step()
    return loss


def naive_pseudolabel_step(model: MilModel, x: np.ndarray, target: np.ndarray,
                           optimizer: Adam) -> float:
    """Baseline fine-tuning: `distill_step` on the clean rows `x` with unit
    weights."""
    return distill_step(model, target, x, np.ones(x.shape[0]), optimizer)
