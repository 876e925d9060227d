"""Dense double-precision primitives with explicit forward/backward contracts.

2-D float64 numpy arrays are the tensor type. `Param` pairs a value with its
gradient accumulator, `Linear` is the model's one affine layer (every
embedder layer and the bag classifier), and `Adam` is a bias-corrected
update. Backward passes are hand-derived; the tests check them against
central finite differences.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Tensor2 = np.ndarray  # rows x cols, float64, row-major

LOG_FLOOR = 1e-12  # clamp inside every log; log(0) is never taken


class Param:
    """Trainable tensor with a same-shape gradient accumulator. Given `grad`,
    both arrays are kept as passed, so a Param can be a view into a larger
    buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, value, name: str = "", grad: Tensor2 | None = None):
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        if self.value.ndim != 2:
            raise ValueError(f"expected 2-D data, got shape {self.value.shape}")
        self.grad = np.zeros_like(self.value) if grad is None else grad
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover
        return f"Param({self.name or 'unnamed'}, shape={self.value.shape})"


def init_uniform(param: Param, rng: np.random.Generator, fan_in: int) -> None:
    scale = 1.0 / math.sqrt(fan_in)
    param.value[:] = rng.uniform(-scale, scale, size=param.value.shape)


class Linear:
    """Affine layer y = x @ W + b, with b broadcast over rows. Its shapes are
    fixed when the model is built, and the embedder checks the model's input,
    so it checks none of them; a mismatch still fails in numpy's matmul."""

    def __init__(self, din: int, dout: int, name: str = "linear"):
        self.w = Param(np.zeros((din, dout)), name=f"{name}.w")
        self.b = Param(np.zeros((1, dout)), name=f"{name}.b")

    @property
    def params(self) -> list[Param]:
        return [self.w, self.b]

    def init(self, rng: np.random.Generator) -> None:
        fan_in = self.w.value.shape[0]
        init_uniform(self.w, rng, fan_in)
        init_uniform(self.b, rng, fan_in)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.w.value
        y += self.b.value
        return y

    def backward(self, x: np.ndarray, g: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate dW = x^T g, db = column-sum(g); return dx = g @ W^T, or
        None without `input_grad`."""
        self.w.grad += x.T @ g
        self.b.grad += g.sum(axis=0, keepdims=True)
        return g @ self.w.value.T if input_grad else None


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
    """Row-wise stable softmax (max-subtraction) of the batched logits `z`.
    A float64 array is computed in its own buffer, which is returned. The
    row max goes a column at a time, as numpy reduces short rows slowly: a
    max rounds nothing, and exp(z - max) drops a zero's sign."""
    z = np.asarray(z, dtype=np.float64)
    top = z[:, 0].copy()
    for c in range(1, z.shape[1]):
        np.maximum(top, z[:, c], out=top)
    z -= top[:, None]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


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

    def moments_finite(self) -> bool:
        """Whether every moment is finite. A gradient whose square overflows
        leaves an infinite second moment, which silently zeroes its updates."""
        return all(np.isfinite(m).all() and np.isfinite(v).all()
                   for _, _, m, v, _, _ in self._state)
