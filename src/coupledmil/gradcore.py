"""Dense double-precision primitives with explicit forward/backward contracts.

All training math runs through this module: 2-D float64 numpy arrays as the
tensor type, `Param` pairing a value with its gradient accumulator, and a
bias-corrected `Adam` update. Backward passes are hand-derived and checked
against central finite differences by `grad_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

Tensor2 = np.ndarray  # rows x cols, float64, row-major

LOG_FLOOR = 1e-12  # clamp inside every log; log(0) is never taken


def tensor2(data) -> Tensor2:
    """Coerce `data` to a C-contiguous 2-D float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D data, got shape {arr.shape}")
    return arr


class Param:
    """Trainable tensor with a same-shape gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str = ""):
        self.value = tensor2(value)
        self.grad = np.zeros_like(self.value)
        self.name = name

    def zero_grad(self) -> None:
        self.grad[:] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


def linear_forward(x: Tensor2, w: Param, b: Param) -> Tensor2:
    """y = x @ W + b, with b broadcast over rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != w.value.shape[0]:
        raise ValueError(
            f"linear_forward: input shape {x.shape} incompatible with "
            f"weight shape {w.value.shape}"
        )
    if b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            f"linear_forward: bias shape {b.value.shape} incompatible with "
            f"weight shape {w.value.shape}"
        )
    return x @ w.value + b.value


def linear_backward(x: Tensor2, w: Param, b: Param, upstream: Tensor2) -> Tensor2:
    """Accumulate dW = x^T g, db = column-sum(g); return dx = g @ W^T."""
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (x.shape[0], w.value.shape[1])
    if upstream.shape != expected:
        raise ValueError(
            f"linear_backward: upstream shape {upstream.shape} does not match "
            f"forward output shape {expected}"
        )
    w.grad += x.T @ upstream
    b.grad += upstream.sum(axis=0, keepdims=True)
    return upstream @ w.value.T


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |x|
    x = np.asarray(x, dtype=np.float64)
    pos = np.exp(-np.clip(x, 0.0, None))
    neg = np.exp(np.clip(x, None, 0.0))
    return np.where(x >= 0, 1.0 / (1.0 + pos), neg / (1.0 + neg))


def softmax(scores) -> np.ndarray:
    """Numerically stable softmax of a score vector (max-subtraction)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    if s.size == 0:
        raise ValueError("softmax: empty input")
    e = np.exp(s - s.max())
    return e / e.sum()


def softmax_rows(z: Tensor2) -> Tensor2:
    """Row-wise stable softmax for batched logits."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _check_distribution(v: np.ndarray, name: str) -> None:
    if (v < 0).any():
        raise ValueError(f"{name} has negative entries")
    if not abs(v.sum() - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"{name} does not sum to 1 (sum={v.sum()!r})")


def kl_rows(p: Tensor2, q: Tensor2) -> np.ndarray:
    """Row-wise KL(p_i || q_i); zero-probability terms of p drop out and both
    logs are clamped at LOG_FLOOR."""
    qc = np.maximum(q, LOG_FLOOR)
    terms = np.where(p > 0, p * (np.log(np.maximum(p, LOG_FLOOR)) - np.log(qc)), 0.0)
    return np.maximum(terms.sum(axis=1), 0.0)  # guard against sign noise when p ~ q


def kl_divergence(p, q) -> float:
    """KL(p || q) = sum_c p_c log(p_c / q_c) of two distributions."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"kl_divergence: length mismatch {p.size} vs {q.size}")
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    return float(kl_rows(p[None, :], q[None, :])[0])


def cross_entropy(pred, target) -> float:
    """-sum_c y_c log(p_c) with p clamped below at LOG_FLOOR; soft targets allowed."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ValueError(f"cross_entropy: length mismatch {p.size} vs {y.size}")
    return float(-np.sum(y * np.log(np.maximum(p, LOG_FLOOR))))


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    `step` applies one update from the accumulated gradients and zeroes them.
    """

    def __init__(self, params: Sequence[Param], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.value -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.grad[:] = 0.0


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
        p.zero_grad()
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
