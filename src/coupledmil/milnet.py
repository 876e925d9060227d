"""MIL backbone: instance embedder MLP, pooling aggregator, bag classifier.

Every backbone realizes the bag representation as one operator, the weighted
average H = a @ h of the instance embeddings with normalized weights a.
`FixedPooling` has no parameters: mean pooling uses a_k = 1/K, max pooling a
one-hot at the instance with the highest positive-class logit. Gated
attention learns a as a softmax over omega^T (tanh(V1 h_k) * sigm(V2 h_k)).
Backward passes are hand-derived; tests check them against central finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gradcore import (
    Param,
    _sigmoid,
    linear_backward,
    linear_forward,
    softmax_inplace,
)

BACKBONES = ("mean", "max", "gated_attention")
POSITIVE_CLASS = 1  # the class whose probability is a bag's score


def init_uniform(param: Param, rng: np.random.Generator, fan_in: int) -> None:
    scale = 1.0 / math.sqrt(fan_in)
    param.value[:] = rng.uniform(-scale, scale, size=param.value.shape)


class Embedder:
    """MLP mapping raw instance features to M-dim representations.

    `dims` runs input -> hidden... -> M; hidden layers use tanh, the output
    layer is linear.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 2:
            raise ValueError(f"embedder needs at least input and output dims: {dims}")
        self.layers: list[tuple[Param, Param]] = []
        for i, (din, dout) in enumerate(zip(self.dims[:-1], self.dims[1:])):
            w = Param(np.zeros((din, dout)), name=f"emb.l{i}.w")
            b = Param(np.zeros((1, dout)), name=f"emb.l{i}.b")
            self.layers.append((w, b))

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer]

    def init(self, rng: np.random.Generator) -> None:
        for w, b in self.layers:
            fan_in = w.value.shape[0]
            init_uniform(w, rng, fan_in)
            init_uniform(b, rng, fan_in)

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"embedder expects (K, {self.in_dim}) input, got {x.shape}"
            )
        cache = []  # each layer's input; a hidden layer's tanh is the next one's
        h = x
        last = len(self.layers) - 1
        for i, (w, b) in enumerate(self.layers):
            cache.append(h)
            z = linear_forward(h, w, b)
            h = np.tanh(z) if i < last else z
        return h, cache

    def backward(self, cache, upstream: np.ndarray) -> None:
        """Accumulate every layer's gradients. The input x is data, so no
        gradient with respect to it is formed."""
        g = upstream
        last = len(self.layers) - 1
        for i in reversed(range(len(self.layers))):
            if i < last:
                t = cache[i + 1]
                g = g * (1.0 - t * t)
            g = linear_backward(cache[i], self.layers[i][0], self.layers[i][1], g, i > 0)


class BagClassifier:
    """Single linear layer mapping a bag representation to class logits."""

    def __init__(self, embed_dim: int, num_classes: int):
        self.w = Param(np.zeros((embed_dim, num_classes)), name="clf.w")
        self.b = Param(np.zeros((1, num_classes)), name="clf.b")

    @property
    def params(self) -> list[Param]:
        return [self.w, self.b]

    def init(self, rng: np.random.Generator) -> None:
        fan_in = self.w.value.shape[0]
        init_uniform(self.w, rng, fan_in)
        init_uniform(self.b, rng, fan_in)

    # h is always an embedder's output, so the shapes that `linear_forward`
    # and `linear_backward` check are fixed when the model is built, and a
    # mismatch still fails in numpy's matmul
    def logits(self, h: np.ndarray) -> np.ndarray:
        return h @ self.w.value + self.b.value

    def backward(self, h: np.ndarray, dlogits: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate dW = h^T g, db = column-sum(g); return dh = g @ W^T, or
        None without `input_grad`."""
        self.w.grad += h.T @ dlogits
        self.b.grad += dlogits.sum(axis=0, keepdims=True)
        return dlogits @ self.w.value.T if input_grad else None


class FixedPooling:
    """Parameter-free pooling: `mean` weighs every instance 1/K, `max` puts
    all weight on the instance with the highest positive-class logit under
    the current classifier. The weights a carry no gradient, so the cache
    is a itself."""

    params: list[Param] = []

    def __init__(self, backbone: str):
        self.backbone = backbone

    def init(self, rng) -> None:
        pass

    def forward(self, h: np.ndarray, classifier: BagClassifier | None = None):
        k = h.shape[0]
        if k == 0:
            raise ValueError("cannot aggregate an empty bag")
        if self.backbone == "mean":
            a = np.full(k, 1.0 / k)
        else:
            if classifier is None:
                raise ValueError("max pooling needs the classifier to rank instances")
            logits = h @ classifier.w.value[:, POSITIVE_CLASS]
            logits += classifier.b.value[0, POSITIVE_CLASS]
            a = np.zeros(k)
            a[int(np.argmax(logits))] = 1.0
        return a[None, :] @ h, a, a

    def backward(self, a: np.ndarray, d_bag: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        return a[:, None] * d_bag if input_grad else None


class GatedAttention:
    """Tanh/sigmoid-gated attention with softmax-normalized scores. Forward
    and backward run once per classifier step, so they work in place where
    they can; each in-place sequence makes the floating-point operations of
    the plain expression in its comment, in the same order, so the results
    are those of the plain expressions bit for bit."""

    def __init__(self, embed_dim: int, attn_dim: int):
        self.embed_dim = embed_dim
        self.attn_dim = attn_dim
        self.v1 = Param(np.zeros((attn_dim, embed_dim)), name="attn.v1")
        self.v2 = Param(np.zeros((attn_dim, embed_dim)), name="attn.v2")
        self.w = Param(np.zeros((attn_dim, 1)), name="attn.w")

    @property
    def params(self) -> list[Param]:
        return [self.v1, self.v2, self.w]

    def init(self, rng: np.random.Generator) -> None:
        init_uniform(self.v1, rng, self.embed_dim)
        init_uniform(self.v2, rng, self.embed_dim)
        init_uniform(self.w, rng, self.attn_dim)

    def gate_scores(self, h: np.ndarray):
        t = h @ self.v1.value.T
        np.tanh(t, out=t)                   # tanh(h V1^T)
        s = _sigmoid(h @ self.v2.value.T)
        g = t * s
        e = (g @ self.w.value).ravel()
        return e, (t, s, g)

    def forward(self, h: np.ndarray, classifier: BagClassifier | None = None):
        if h.shape[0] == 0:
            raise ValueError("cannot aggregate an empty bag")
        a, (t, s, g) = self.gate_scores(h)
        softmax_inplace(a)                  # softmax(e)
        bag = a[None, :] @ h
        return bag, a, (h, t, s, g, a)

    def backward(self, cache, d_bag: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients; return the gradient with
        respect to h, or None without `input_grad`."""
        h, t, s, g, a = cache
        de = (h @ d_bag.T).ravel()
        de -= a @ de
        de *= a                             # a * (da - a . da), the softmax Jacobian
        self.w.grad += (g.T @ de)[:, None]
        dg = de[:, None] * self.w.value.T   # outer(de, w)
        tmp = np.multiply(t, t)
        np.subtract(1.0, tmp, out=tmp)
        du = dg * s
        du *= tmp                           # dg * s * (1 - t t)
        np.subtract(1.0, s, out=tmp)
        dv = dg
        dv *= t
        dv *= s
        dv *= tmp                           # dg * t * s * (1 - s)
        self.v1.grad += du.T @ h
        self.v2.grad += dv.T @ h
        if not input_grad:
            return None
        return a[:, None] * d_bag + du @ self.v1.value + dv @ self.v2.value


@dataclass
class ModelConfig:
    d_raw: int
    hidden: tuple[int, ...] = (64,)
    embed_dim: int = 32
    attn_dim: int = 16
    num_classes: int = 2
    backbone: str = "gated_attention"

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.backbone not in BACKBONES:
            raise ValueError(
                f"unknown backbone {self.backbone!r}; expected one of {BACKBONES}"
            )
        dims = (self.d_raw, *self.hidden, self.embed_dim, self.attn_dim)
        if min(dims) < 1:
            raise ValueError(f"model dimensions must be >= 1, got {dims}")
        if self.num_classes <= POSITIVE_CLASS:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")

    @property
    def num_params(self) -> int:
        """Scalar parameter count of a MilModel with this config, computed
        without allocating it."""
        dims = (self.d_raw, *self.hidden, self.embed_dim)
        count = sum((din + 1) * dout for din, dout in zip(dims, dims[1:]))
        count += (self.embed_dim + 1) * self.num_classes
        if self.backbone == "gated_attention":
            count += self.attn_dim * (2 * self.embed_dim + 1)
        return count


@dataclass
class BagForwardTrace:
    """Everything produced by one bag forward pass, including the caches the
    backward pass needs."""

    instance_reps: np.ndarray    # K x M
    attention: np.ndarray        # K, sums to 1
    bag_rep: np.ndarray          # 1 x M
    probs: np.ndarray            # C, class distribution
    embed_cache: object = None
    agg_cache: object = None


class MilModel:
    """Embedder + aggregator + bag classifier with explicit phase boundaries:
    the trainer chooses which parameter group an optimizer touches.

    Every parameter lives in one arena: `arena.value` and `arena.grad` are
    1 x N buffers in checkpoint order (embedder | aggregator | classifier),
    and each Param's value and grad are views into them. The group Params
    `embedder_group`, `head_group` (aggregator and classifier) and
    `classifier_group` span contiguous runs of the arena, so an optimizer,
    a checksum or a copy handles one array per run."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.embedder = Embedder((config.d_raw, *config.hidden, config.embed_dim))
        self.aggregator = (GatedAttention(config.embed_dim, config.attn_dim)
                           if config.backbone == "gated_attention"
                           else FixedPooling(config.backbone))
        self.classifier = BagClassifier(config.embed_dim, config.num_classes)
        self.arena = Param(np.zeros((1, config.num_params)), "arena")
        start = 0
        for p in self.all_params:
            stop = start + p.value.size
            p.value = self.arena.value[0, start:stop].reshape(p.value.shape)
            p.grad = self.arena.grad[0, start:stop].reshape(p.value.shape)
            start = stop
        n_embedder = sum(p.value.size for p in self.embedder.params)
        n_classifier = sum(p.value.size for p in self.classifier.params)
        self.embedder_group = self._group("embedder", 0, n_embedder)
        self.head_group = self._group("head", n_embedder, start)
        self.classifier_group = self._group("classifier", start - n_classifier, start)

    def _group(self, name: str, start: int, stop: int) -> Param:
        return Param(self.arena.value[:, start:stop], name,
                     self.arena.grad[:, start:stop])

    def copy(self) -> "MilModel":
        """An independent model with this one's parameter values and
        gradients, copied buffer to buffer."""
        clone = MilModel(self.config)
        clone.arena.value[:] = self.arena.value
        clone.arena.grad[:] = self.arena.grad
        return clone

    def __deepcopy__(self, memo) -> "MilModel":
        # a field-by-field deepcopy would give every Param its own array,
        # cut loose from the copy's arena
        return self.copy()

    @classmethod
    def build(cls, config: ModelConfig, rng: np.random.Generator) -> "MilModel":
        model = cls(config)
        model.embedder.init(rng)
        model.aggregator.init(rng)
        model.classifier.init(rng)
        return model

    @property
    def head_params(self) -> list[Param]:
        return [*self.aggregator.params, *self.classifier.params]

    @property
    def all_params(self) -> list[Param]:
        return [*self.embedder.params, *self.head_params]

    def head_forward(self, h: np.ndarray):
        bag_rep, a, agg_cache = self.aggregator.forward(h, self.classifier)
        probs = softmax_inplace(self.classifier.logits(bag_rep).ravel())
        return bag_rep, a, probs, agg_cache

    def head_backward(self, bag_rep: np.ndarray, agg_cache, dlogits: np.ndarray,
                      input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the head's gradients; return the gradient with respect
        to the instance representations h, or None without `input_grad`."""
        d_bag = self.classifier.backward(bag_rep, dlogits)
        return self.aggregator.backward(agg_cache, d_bag, input_grad)

    def bag_forward(self, x: np.ndarray) -> BagForwardTrace:
        h, embed_cache = self.embedder.forward(x)
        bag_rep, a, probs, agg_cache = self.head_forward(h)
        return BagForwardTrace(
            instance_reps=h, attention=a, bag_rep=bag_rep, probs=probs,
            embed_cache=embed_cache, agg_cache=agg_cache,
        )
