"""Evaluation metrics: ROC AUC (trapezoidal, tie-aware), F1, accuracy, plus
the exhaustive pairwise-concordance AUC used as a cross-check in tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 fallback


class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


@dataclass
class EvalResult:
    auc: float
    f1: float
    acc: float
    count: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "f1": self.f1,
            "acc": self.acc,
            "count": self.count,
            "threshold": self.threshold,
        }


def _validate_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(np.int64)
    if scores.size != labels.size:
        raise ValueError(f"length mismatch: {scores.size} scores, {labels.size} labels")
    if scores.size == 0:
        raise MetricError("no samples")
    if not np.isfinite(scores).all():
        raise MetricError(f"{int((~np.isfinite(scores)).sum())} non-finite scores")
    return scores, labels


def roc_auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve; tied scores collapse into one
    threshold point, which counts each tied pair as 1/2."""
    scores, labels = _validate_binary(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricError(
            f"roc_auc undefined: {n_pos} positive / {n_neg} negative labels"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # last index of each distinct-score block
    ends = np.flatnonzero(np.diff(s) != 0)
    ends = np.append(ends, s.size - 1)
    tps = np.cumsum(y)[ends]
    fps = (ends + 1) - tps
    tpr = np.concatenate(([0.0], tps / n_pos))
    fpr = np.concatenate(([0.0], fps / n_neg))
    return float(_trapezoid(tpr, fpr))


def pairwise_auc(scores, labels) -> float:
    """Brute-force concordance: mean over all positive/negative pairs of
    [pos > neg] + 0.5 [pos == neg]. O(P*N); test-side cross-check."""
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


def f1_accuracy(scores, labels, threshold: float = 0.5) -> tuple[float, float]:
    """F1 of the positive class and accuracy, predicting score >= threshold.
    F1 is 0 when precision + recall is 0."""
    scores, labels = _validate_binary(scores, labels)
    preds = (scores >= threshold).astype(np.int64)
    tp = int(((preds == 1) & (labels == 1)).sum())
    fp = int(((preds == 1) & (labels == 0)).sum())
    fn = int(((preds == 0) & (labels == 1)).sum())
    acc = float((preds == labels).mean())
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom > 0 else 0.0
    return float(f1), acc


def evaluate_scores(scores, labels, threshold: float = 0.5) -> EvalResult:
    auc = roc_auc(scores, labels)
    f1, acc = f1_accuracy(scores, labels, threshold)
    return EvalResult(auc=auc, f1=f1, acc=acc,
                      count=int(np.asarray(scores).size), threshold=threshold)
