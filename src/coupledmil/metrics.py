"""Evaluation metrics: ROC AUC (exact, tie-aware), F1, accuracy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class MetricError(ValueError):
    """Metric undefined for the given inputs (e.g. single-class labels)."""


@dataclass
class EvalResult:
    auc: float
    f1: float
    acc: float
    count: int
    threshold: float


def _validate_binary(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.size != labels.size:
        raise ValueError(f"length mismatch: {scores.size} scores, {labels.size} labels")
    if scores.size == 0:
        raise MetricError("no samples")
    if not np.isfinite(scores).all():
        raise MetricError(f"{int((~np.isfinite(scores)).sum())} non-finite scores")
    binary = (labels == 0) | (labels == 1)
    if not binary.all():
        raise MetricError(f"{int((~binary).sum())} labels other than 0 or 1")
    return scores, labels.astype(np.int64)


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve; tied scores collapse into one threshold
    point, which counts each tied pair as 1/2. The trapezoids are summed in
    integer counts, so the result is the exact fraction of concordant pairs,
    rounded once."""
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
    tps = np.concatenate(([0], np.cumsum(y)[ends]))
    fps = np.concatenate(([0], ends + 1)) - tps
    twice_area = int((np.diff(fps) * (tps[1:] + tps[:-1])).sum())
    return twice_area / (2 * n_pos * n_neg)


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
