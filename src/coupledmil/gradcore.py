"""Dense double-precision primitives with explicit forward/backward contracts.

All training math runs through this module: 2-D float64 numpy arrays as the
tensor type, `Param` pairing a value with its gradient accumulator, and a
bias-corrected `Adam` update. Backward passes are hand-derived; the tests
check them against central finite differences.
"""

from __future__ import annotations

from typing import Sequence

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
    """Trainable tensor with a same-shape gradient accumulator. Given `grad`,
    both arrays are kept as passed, so a Param can be a view into a larger
    buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str = "", grad: Tensor2 | None = None):
        self.value = tensor2(value)
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.name = name

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


def linear_backward(x: Tensor2, w: Param, b: Param, upstream: Tensor2,
                    input_grad: bool = True) -> Tensor2 | None:
    """Accumulate dW = x^T g, db = column-sum(g); return dx = g @ W^T, or
    None without `input_grad`."""
    upstream = np.asarray(upstream, dtype=np.float64)
    expected = (x.shape[0], w.value.shape[1])
    if upstream.shape != expected:
        raise ValueError(
            f"linear_backward: upstream shape {upstream.shape} does not match "
            f"forward output shape {expected}"
        )
    w.grad += x.T @ upstream
    b.grad += upstream.sum(axis=0, keepdims=True)
    return upstream @ w.value.T if input_grad else None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp never
    # overflows, and one exp serves both halves
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
