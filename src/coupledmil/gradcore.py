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
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    s = np.where(x >= 0, 1.0, e)
    e += 1.0
    s /= e
    return s


def softmax_inplace(e: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) of the float64 score
    vector `e`, computed in e's own buffer, which is returned. An empty `e`
    raises ValueError."""
    e -= e.max()
    np.exp(e, out=e)
    e /= e.sum()
    return e


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
    return float(-(y * np.log(np.maximum(p, LOG_FLOOR))).sum())


class Adam:
    """Bias-corrected Adam over a fixed parameter list.

    `step` applies one update from the accumulated gradients and zeroes them.
    It works in two preallocated scratch buffers per parameter, with the same
    floating-point operations in the same order as the textbook expressions.
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
        # per parameter: value, gradient, first and second moments, and two
        # scratch buffers
        self._state = [(p.value, p.grad, *(np.zeros_like(p.value) for _ in range(4)))
                       for p in self.params]

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        b1, b2 = self.beta1, self.beta2
        for value, g, m, v, s1, s2 in self._state:
            m *= b1
            np.multiply(g, 1.0 - b1, out=s1)
            m += s1                          # m = b1 m + (1 - b1) g
            v *= b2
            np.multiply(g, 1.0 - b2, out=s1)
            s1 *= g
            v += s1                          # v = b2 v + (1 - b2) g g
            np.divide(m, c1, out=s1)
            s1 *= self.lr
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            value -= s1                      # lr (m / c1) / (sqrt(v / c2) + eps)
            g.fill(0.0)
