"""MIL backbone: instance embedder MLP, pooling aggregator, bag classifier.

Every backbone realizes the bag representation as one operator, the weighted
average H = a @ h of the instance embeddings with normalized weights a.
`FixedPooling` has no parameters: mean pooling uses a_k = 1/K, max pooling a
one-hot at the instance with the highest positive-class logit. Gated
attention learns a as a softmax over omega^T (tanh(V1 h_k) * sigm(V2 h_k)).
Backward passes are hand-derived; tests check them against central finite
differences. No bag loss reaches the embedder, so the aggregator's and the
head's backward passes accumulate parameter gradients and form no gradient
with respect to the instance embeddings. The classifier phase trains the
head through its aggregator's `train_epochs`; gated attention's runs the
head's forward and backward passes as one flat step, which the tests check
bit for bit against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gradcore import Linear, Param, _sigmoid, init_uniform, softmax_inplace

BACKBONES = ("mean", "max", "gated_attention")
NUM_CLASSES = 2  # the package is binary: every label has two entries
POSITIVE_CLASS = 1  # the class whose probability is a bag's score


class Embedder:
    """MLP mapping raw instance features to M-dim representations.

    `dims` runs input -> hidden... -> M; hidden layers use tanh, the output
    layer is linear.
    """

    def __init__(self, dims: Sequence[int]):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 2:
            raise ValueError(f"embedder needs at least input and output dims: {dims}")
        self.layers = [Linear(din, dout, f"emb.l{i}") for i, (din, dout)
                       in enumerate(zip(self.dims[:-1], self.dims[1:]))]

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params]

    def init(self, rng: np.random.Generator) -> None:
        for layer in self.layers:
            layer.init(rng)

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"embedder expects (K, {self.in_dim}) input, got {x.shape}"
            )
        cache = []  # each layer's input; a hidden layer's tanh is the next one's
        h = x
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            cache.append(h)
            h = layer.forward(h)
            if i < last:
                np.tanh(h, out=h)
        return h, cache

    def backward(self, cache, upstream: np.ndarray) -> None:
        """Accumulate every layer's gradients. The input x is data, so no
        gradient with respect to it is formed."""
        g = upstream
        last = len(self.layers) - 1
        for i in reversed(range(len(self.layers))):
            if i < last:
                # g * (1 - t t) in place: g is the layer above's fresh dx
                t = cache[i + 1]
                d = np.multiply(t, t)
                np.subtract(1.0, d, out=d)
                g *= d
            g = self.layers[i].backward(cache[i], g, i > 0)


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

    def forward(self, h: np.ndarray, classifier: Linear | None = None):
        k = h.shape[0]
        if k == 0:
            raise ValueError("cannot aggregate an empty bag")
        if self.backbone == "mean":
            a = np.full(k, 1.0 / k)
        else:
            if classifier is None:
                raise ValueError("max pooling needs the classifier to rank instances")
            logits = np.dot(h, classifier.w.value[:, POSITIVE_CLASS])
            logits += classifier.b.value[0, POSITIVE_CLASS]
            a = np.zeros(k)
            a[int(np.argmax(logits))] = 1.0
        return np.dot(a[None, :], h), a, a

    def backward(self, a: np.ndarray, d_bag: np.ndarray) -> None:
        pass  # no parameters to accumulate

    def train_epochs(self, model: "MilModel", schedule, h_all: np.ndarray, step):
        """The classifier phase's steps: for each epoch of `schedule`, the
        head's forward and backward pass on every sample's rows of `h_all`,
        then `step()`. Yields each epoch's class probabilities, one row per
        sample, as the steps saw them."""
        for samples in schedule:
            probs = np.empty((len(samples), NUM_CLASSES))
            for i, (rows, label) in enumerate(samples):
                bag_rep, _, p, cache = model.head_forward(h_all[rows])
                probs[i] = p
                p -= label                      # dlogits, in place
                model.head_backward(bag_rep, cache, p[None, :])
                step()
            yield probs


class GatedAttention:
    """Tanh/sigmoid-gated attention with softmax-normalized scores. Forward
    and backward work in place where they can; each in-place sequence makes
    the floating-point operations of the plain expression in its comment, in
    the same order, so the results are those of the plain expressions bit
    for bit. `train_epochs` runs both, and the head's, as one step."""

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

    def forward(self, h: np.ndarray, classifier: Linear | None = None):
        if h.shape[0] == 0:
            raise ValueError("cannot aggregate an empty bag")
        t = np.dot(h, self.v1.value.T)
        np.tanh(t, out=t)                   # tanh(h V1^T)
        s = _sigmoid(np.dot(h, self.v2.value.T))
        g = t * s
        a = softmax_inplace(np.dot(g, self.w.value).ravel())  # softmax(g w)
        return np.dot(a[None, :], h), a, (h, t, s, g, a)

    def backward(self, cache, d_bag: np.ndarray) -> None:
        """Accumulate the parameter gradients."""
        h, t, s, g, a = cache
        de = np.dot(h, d_bag.T).ravel()
        de -= np.dot(a, de)
        de *= a                             # a * (da - a . da), the softmax Jacobian
        self.w.grad += np.dot(g.T, de)[:, None]
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
        self.v1.grad += np.dot(du.T, h)
        self.v2.grad += np.dot(dv.T, h)

    def train_epochs(self, model: "MilModel", schedule, h_all: np.ndarray, step):
        """`FixedPooling.train_epochs` for gated attention, with each step
        run as one block of in-place numpy calls. The block makes the
        floating-point operations of `forward`, `MilModel.head_forward`,
        `backward` and `MilModel.head_backward` in their order, with every
        product on operands of their shapes, so its probabilities and
        gradients are theirs bit for bit. The parameter views are bound once
        per phase, and the temporaries live in buffers of `schedule.max_rows`
        rows, cut again only when a sample's size changes."""
        clf = model.classifier
        v1t, v2t, w, wt = self.v1.value.T, self.v2.value.T, self.w.value, self.w.value.T
        cw, cwt, cb = clf.w.value, clf.w.value.T, clf.b.value
        gv1, gv2, gw, gcw, gcb = self.v1.grad, self.v2.grad, self.w.grad, clf.w.grad, clf.b.grad
        # t, u, e, s and g, then the columns a and de
        full = [np.empty((schedule.max_rows, self.attn_dim)) for _ in range(5)]
        full += [np.empty((schedule.max_rows, 1)) for _ in range(2)]
        bag, d_bag = np.empty((1, self.embed_dim)), np.empty((1, self.embed_dim))
        bag_t, d_bag_t = bag.T, d_bag.T
        logits = np.empty((1, NUM_CLASSES))
        p = logits.ravel()
        dcw, dv, dw = np.empty(cw.shape), np.empty(gv1.shape), np.empty(self.attn_dim)
        dw_col = dw[:, None]
        k_last = 0
        for samples in schedule:
            probs = np.empty((len(samples), NUM_CLASSES))
            for i, (rows, label) in enumerate(samples):
                h = h_all[rows]
                if h.shape[0] != k_last:
                    k_last = h.shape[0]
                    t, u, e, s, g, a_col, de_col = (b[:k_last] for b in full)
                    a, de = a_col.ravel(), de_col.ravel()
                    a_row, g_t, e_t, u_t = a[None, :], g.T, e.T, u.T
                np.dot(h, v1t, out=t)
                np.tanh(t, out=t)               # tanh(h V1^T)
                np.dot(h, v2t, out=u)           # then _sigmoid(u), with [u >= 0] in s
                np.copysign(u, -1.0, out=e)
                np.exp(e, out=e)
                np.greater_equal(u, 0, out=s)
                np.maximum(e, s, out=s)
                e += 1.0
                s /= e                          # sigm(h V2^T)
                np.multiply(t, s, out=g)
                np.dot(g, w, out=a_col)
                softmax_inplace(a)              # softmax(g w)
                np.dot(a_row, h, out=bag)
                np.dot(bag, cw, out=logits)
                logits += cb
                softmax_inplace(p)
                probs[i] = p
                logits -= label                 # dlogits, in place
                np.dot(bag_t, logits, out=dcw)
                gcw += dcw
                gcb += logits
                np.dot(logits, cwt, out=d_bag)
                np.dot(h, d_bag_t, out=de_col)
                de -= np.dot(a, de)
                de *= a                         # a * (da - a . da)
                np.dot(g_t, de, out=dw)
                gw += dw_col                    # g is free from here on
                np.multiply(de_col, wt, out=u)  # dg = outer(de, w)
                np.multiply(t, t, out=g)
                np.subtract(1.0, g, out=g)
                np.multiply(u, s, out=e)
                e *= g                          # dg * s * (1 - t t)
                np.subtract(1.0, s, out=g)
                u *= t
                u *= s
                u *= g                          # dg * t * s * (1 - s)
                np.dot(e_t, h, out=dv)
                gv1 += dv
                np.dot(u_t, h, out=dv)
                gv2 += dv
                step()
            yield probs


@dataclass
class ModelConfig:
    d_raw: int
    hidden: tuple[int, ...] = (64,)
    embed_dim: int = 32
    attn_dim: int = 16
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

    @property
    def num_params(self) -> int:
        """Scalar parameter count of a MilModel with this config, computed
        without allocating it."""
        dims = (self.d_raw, *self.hidden, self.embed_dim)
        count = sum((din + 1) * dout for din, dout in zip(dims, dims[1:]))
        count += (self.embed_dim + 1) * NUM_CLASSES
        if self.backbone == "gated_attention":
            count += self.attn_dim * (2 * self.embed_dim + 1)
        return count


class MilModel:
    """Embedder + aggregator + bag classifier with explicit phase boundaries:
    the trainer chooses which parameter group an optimizer touches.

    Every parameter lives in one arena: `arena.value` and `arena.grad` are
    1 x N buffers in checkpoint order (embedder | aggregator | classifier),
    and each Param's value and grad are views into them. The group Params
    `embedder_group` and `head_group` (aggregator and classifier) span
    contiguous runs of the arena, so an optimizer or a checksum handles one
    array per run."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.embedder = Embedder((config.d_raw, *config.hidden, config.embed_dim))
        self.aggregator = (GatedAttention(config.embed_dim, config.attn_dim)
                           if config.backbone == "gated_attention"
                           else FixedPooling(config.backbone))
        self.classifier = Linear(config.embed_dim, NUM_CLASSES, "clf")
        self.arena = Param(np.zeros((1, config.num_params)), "arena")
        start = 0
        for p in self.all_params:
            stop = start + p.value.size
            p.value = self.arena.value[0, start:stop].reshape(p.value.shape)
            p.grad = self.arena.grad[0, start:stop].reshape(p.value.shape)
            start = stop
        n_embedder = sum(p.value.size for p in self.embedder.params)
        self.embedder_group = self._group("embedder", 0, n_embedder)
        self.head_group = self._group("head", n_embedder, start)

    def _group(self, name: str, start: int, stop: int) -> Param:
        return Param(self.arena.value[:, start:stop], name,
                     self.arena.grad[:, start:stop])

    def __deepcopy__(self, memo) -> "MilModel":
        """An independent model with this one's parameter values and
        gradients, copied arena to arena: a field-by-field deepcopy would
        give every Param its own array, cut loose from the copy's arena."""
        clone = MilModel(self.config)
        clone.arena.value[:] = self.arena.value
        clone.arena.grad[:] = self.arena.grad
        return clone

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
        probs = softmax_inplace(self.classifier.forward(bag_rep).ravel())
        return bag_rep, a, probs, agg_cache

    def head_backward(self, bag_rep: np.ndarray, agg_cache, dlogits: np.ndarray) -> None:
        """Accumulate the head's gradients. The classifier's backward is
        written out for the one row `dlogits`: the bias gradient, a column
        sum over that row, is the row itself. Fixed pooling trains through
        it; gated attention's `train_epochs` makes its operations inline."""
        clf = self.classifier
        clf.w.grad += np.dot(bag_rep.T, dlogits)
        clf.b.grad += dlogits
        self.aggregator.backward(agg_cache, np.dot(dlogits, clf.w.value.T))

    def bag_forward(self, x: np.ndarray):
        """The instance embeddings h (K x M), the attention a (K, sums to 1)
        and the class probabilities (C) of the bag x."""
        h, _ = self.embedder.forward(x)
        _, a, probs, _ = self.head_forward(h)
        return h, a, probs
