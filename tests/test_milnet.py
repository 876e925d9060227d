import copy

import numpy as np
import pytest

from coupledmil.gradcore import Adam, Linear, softmax_inplace, softmax_rows
from coupledmil.milnet import (
    Embedder,
    FixedPooling,
    GatedAttention,
    MilModel,
    ModelConfig,
)
from coupledmil.orchestrator import ClassifierSchedule
from oracles import bag_backward, cross_entropy, grad_check, views_of_own_arena


def build_model(d_raw=4, hidden=(6,), embed_dim=5, attn_dim=3, backbone="gated_attention",
                seed=0):
    cfg = ModelConfig(d_raw=d_raw, hidden=hidden, embed_dim=embed_dim,
                      attn_dim=attn_dim, backbone=backbone)
    return MilModel.build(cfg, np.random.default_rng(seed))


class TestEmbedder:
    def test_identity_single_layer(self):
        emb = Embedder((3, 3))
        emb.layers[0].w.value[:] = np.eye(3)
        x = np.random.default_rng(0).standard_normal((5, 3))
        h, _ = emb.forward(x)
        assert np.array_equal(h, x)

    def test_zero_weights_zero_output(self):
        emb = Embedder((3, 4, 2))
        x = np.random.default_rng(0).standard_normal((5, 3))
        h, _ = emb.forward(x)
        assert not h.any()


class TestAggregate:
    def test_single_instance_collapses(self):
        h = np.random.default_rng(0).standard_normal((1, 5))
        for model in (build_model(backbone=b) for b in ("mean", "max", "gated_attention")):
            bag_rep, a, _ = model.aggregator.forward(h, model.classifier)
            assert np.allclose(a, [1.0])
            assert np.allclose(bag_rep, h)

    def test_gated_attention_symmetric_instances(self):
        model = build_model()
        row = np.random.default_rng(3).standard_normal(5)
        bag_rep, a, _ = model.aggregator.forward(np.stack([row, row]), model.classifier)
        assert np.allclose(a, [0.5, 0.5])
        assert np.allclose(bag_rep, row[None, :])

    def test_mean_arithmetic(self):
        bag_rep, a, _ = FixedPooling("mean").forward(np.array([[1.0, 3.0], [3.0, 1.0]]))
        assert np.allclose(bag_rep, [[2.0, 2.0]])
        assert np.allclose(a, [0.5, 0.5])

    def test_max_selects_highest_positive_logit(self):
        clf = Linear(2, 2)
        clf.w.value[:] = np.array([[0.0, 1.0], [0.0, 0.0]])  # logit_1 = first feature
        h = np.array([[0.1, 9.0], [5.0, -1.0], [2.0, 0.0]])
        bag_rep, a, _ = FixedPooling("max").forward(h, clf)
        assert np.allclose(a, [0.0, 1.0, 0.0])
        assert np.allclose(bag_rep, [[5.0, -1.0]])

    def test_max_is_the_selected_row_and_routes_its_gradient(self):
        # a one-hot weighted average is the selected row bit for bit, and
        # only that row carries the bag gradient into the classifier
        rng = np.random.default_rng(5)
        model = build_model(backbone="max", seed=2)
        for k in (1, 4, 33):
            h = rng.standard_normal((k, 5)) * 1e3
            bag_rep, a, cache = model.aggregator.forward(h, model.classifier)
            k_star = int(np.argmax(h @ model.classifier.w.value[:, 1]
                                   + model.classifier.b.value[0, 1]))
            assert np.array_equal(a, np.eye(k)[k_star])
            assert np.array_equal(bag_rep, h[k_star:k_star + 1])
            dlogits = rng.standard_normal((1, 2))
            model.arena.grad[:] = 0.0
            model.head_backward(bag_rep, cache, dlogits)
            assert np.array_equal(model.classifier.w.grad, h[k_star:k_star + 1].T @ dlogits)

    def test_max_requires_classifier(self):
        with pytest.raises(ValueError, match="classifier"):
            FixedPooling("max").forward(np.zeros((2, 3)))

    def test_bag_rep_is_attention_combination(self):
        rng = np.random.default_rng(9)
        for backbone in ("mean", "max", "gated_attention"):
            model = build_model(backbone=backbone)
            h = rng.uniform(-2, 2, size=(7, 5))
            bag_rep, a, _ = model.aggregator.forward(h, model.classifier)
            assert abs(a.sum() - 1.0) <= 1e-9
            assert np.max(np.abs(bag_rep - a[None, :] @ h)) <= 1e-9


class TestClassify:
    def test_zero_parameters_uniform(self):
        clf = Linear(4, 2)
        p = softmax_rows(clf.forward(np.random.default_rng(0).standard_normal((1, 4)))).ravel()
        assert np.allclose(p, [0.5, 0.5])

    def test_probability_monotone_in_weight(self):
        clf = Linear(1, 2)
        h = np.array([[2.0]])
        probs = []
        for w in np.linspace(0.0, 5.0, 11):
            clf.w.value[:] = np.array([[0.0, w]])
            probs.append(softmax_rows(clf.forward(h))[0, 1])
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.9999

    def test_dimension_mismatch(self):
        clf = Linear(4, 2)
        with pytest.raises(ValueError):
            clf.forward(np.zeros((1, 3)))


class TestBagForward:
    def test_single_instance_collapse(self):
        model = build_model()
        x = np.random.default_rng(1).uniform(-2, 2, size=(1, 4))
        _, _, probs = model.bag_forward(x)
        h, _ = model.embedder.forward(x)
        assert np.allclose(probs, softmax_rows(model.classifier.forward(h)).ravel())

    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_permutation_invariance(self, backbone):
        model = build_model(backbone=backbone)
        rng = np.random.default_rng(13)
        for trial in range(50):
            x = rng.uniform(-2, 2, size=(int(rng.integers(2, 12)), 4))
            _, _, base = model.bag_forward(x)
            _, _, perm = model.bag_forward(x[rng.permutation(x.shape[0])])
            assert np.max(np.abs(base - perm) / np.maximum(np.abs(base), 1e-300)) <= 1e-9

    def test_duplicated_instances_mean_invariant(self):
        model = build_model(backbone="mean")
        x = np.random.default_rng(5).uniform(-2, 2, size=(4, 4))
        doubled = np.concatenate([x, x])
        rep_a, _, probs_a, _ = model.head_forward(model.embedder.forward(x)[0])
        rep_b, _, probs_b, _ = model.head_forward(model.embedder.forward(doubled)[0])
        assert np.max(np.abs(rep_a - rep_b)) <= 1e-12
        assert np.allclose(probs_a, probs_b)
        assert np.array_equal(model.bag_forward(x)[2], probs_a)

    def test_trace_invariant_bag_rep(self):
        rng = np.random.default_rng(2)
        for backbone in ("mean", "max", "gated_attention"):
            model = build_model(backbone=backbone)
            x = rng.uniform(-2, 2, size=(6, 4))
            h, a, probs = model.bag_forward(x)
            bag_rep, a_head, probs_head, _ = model.head_forward(model.embedder.forward(x)[0])
            assert np.array_equal(a, a_head) and np.array_equal(probs, probs_head)
            assert np.max(np.abs(bag_rep - a[None, :] @ h)) <= 1e-9
            assert abs(a.sum() - 1.0) <= 1e-9
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_gate_score_shift_invariance(self):
        model = build_model()
        agg = model.aggregator
        x = np.random.default_rng(8).uniform(-2, 2, size=(5, 4))
        h, _ = model.embedder.forward(x)
        # the raw gate scores w^T (tanh(V1 h_k) * sigm(V2 h_k))
        gate = np.tanh(h @ agg.v1.value.T) / (1.0 + np.exp(-(h @ agg.v2.value.T)))
        e = (gate @ agg.w.value).ravel()
        _, a, _ = agg.forward(h, model.classifier)
        shifted = softmax_inplace(e + 37.5)
        assert np.max(np.abs(shifted - a) / np.maximum(np.abs(a), 1e-300)) <= 1e-9


class TestGradients:
    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_full_bag_gradients(self, backbone):
        rng = np.random.default_rng(31)
        model = build_model(d_raw=3, hidden=(4,), embed_dim=3, attn_dim=3,
                            backbone=backbone, seed=5)
        x = rng.uniform(-2, 2, size=(4, 3))
        y = np.array([0.0, 1.0])
        report = grad_check(lambda: bag_backward(model, x, y), model.all_params)
        assert report.max_rel_error <= 1e-4, report.per_param

    def test_gated_attention_block_gradients(self):
        rng = np.random.default_rng(7)
        agg = GatedAttention(4, 3)
        agg.init(rng)
        h = rng.uniform(-2, 2, size=(5, 4))
        target = rng.uniform(-1, 1, size=(1, 4))

        def loss():
            bag_rep, _, cache = agg.forward(h)
            diff = bag_rep - target
            agg.backward(cache, 2.0 * diff)
            return float((diff * diff).sum())

        report = grad_check(loss, agg.params)
        assert report.max_rel_error <= 1e-4, report.per_param

    def test_embed_classify_gradients(self):
        rng = np.random.default_rng(15)
        model = build_model(d_raw=3, hidden=(5,), embed_dim=4, seed=2)
        x = rng.uniform(-2, 2, size=(1, 3))
        y = np.array([1.0, 0.0])

        def loss():
            h, cache = model.embedder.forward(x)
            probs = softmax_rows(model.classifier.forward(h)).ravel()
            val = cross_entropy(probs, y)
            dlogits = (probs - y)[None, :]
            dh = model.classifier.backward(h, dlogits)
            model.embedder.backward(cache, dh)
            return val

        params = [*model.embedder.params, *model.classifier.params]
        report = grad_check(loss, params)
        assert report.max_rel_error <= 1e-4, report.per_param


def test_model_config_rejects_unknown_backbone():
    with pytest.raises(ValueError, match="backbone"):
        ModelConfig(d_raw=3, backbone="transformer")


@pytest.mark.parametrize("field,value", [
    ("d_raw", 0), ("embed_dim", 0), ("attn_dim", 0), ("hidden", (4, 0)),
])
def test_model_config_rejects_bad_dims(field, value):
    with pytest.raises(ValueError):
        ModelConfig(**{"d_raw": 3, field: value})


@pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
def test_num_params_matches_built_model(backbone):
    cfg = ModelConfig(d_raw=5, hidden=(7, 3), embed_dim=4, attn_dim=6, backbone=backbone)
    assert cfg.num_params == sum(p.value.size for p in MilModel(cfg).all_params)


class TestArena:
    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_groups_span_their_params(self, backbone):
        model = build_model(backbone=backbone)
        assert views_of_own_arena(model)
        for group, params in ((model.embedder_group, model.embedder.params),
                              (model.head_group, model.head_params),
                              (model.arena, model.all_params)):
            flat = np.concatenate([p.value.ravel() for p in params])
            assert np.array_equal(group.value[0], flat)
            assert all(np.shares_memory(p.value, group.value) for p in params)

    def test_deepcopy_keeps_its_own_arena(self):
        model = build_model(seed=3)
        before = model.arena.value.copy()
        clone = copy.deepcopy(model)
        assert views_of_own_arena(clone)
        assert not np.shares_memory(clone.arena.value, model.arena.value)
        x = np.random.default_rng(4).uniform(-2, 2, size=(5, 4))
        bag_backward(clone, x, np.array([1.0, 0.0]))
        Adam([clone.head_group], lr=1e-2).step()
        assert views_of_own_arena(clone)
        assert not np.array_equal(clone.arena.value, before)
        assert np.array_equal(model.arena.value, before)
        assert not model.arena.grad.any()


@pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
def test_head_backward_forms_no_input_gradient(backbone):
    # no bag loss reaches the embedder: the head's backward passes return
    # nothing and leave the embedder's gradients at zero
    model = build_model(backbone=backbone, seed=9)
    h = np.random.default_rng(10).uniform(-2, 2, size=(3, 5))
    bag_rep, _, probs, agg_cache = model.head_forward(h)
    assert model.head_backward(bag_rep, agg_cache, (probs - [0.0, 1.0])[None, :]) is None
    assert model.aggregator.backward(agg_cache, np.ones((1, 5))) is None
    assert model.head_group.grad.any()
    assert not model.embedder_group.grad.any()


@pytest.mark.parametrize("hidden, embed_dim, attn_dim, head_scale", [
    ((64,), 32, 16, 1.0),
    ((8,), 4, 2, 1.0),
    ((8,), 1, 1, 1.0),
    ((64,), 32, 16, 1e4),
], ids=["desk", "cli-smoke", "attn1-embed1", "underflow"])
def test_flat_step_is_head_forward_and_backward(hidden, embed_dim, attn_dim, head_scale):
    # the classifier phase's gated-attention step, driven sample by sample at
    # the desk dims, the CLI smoke run's and the smallest: before each Adam
    # step, its probabilities and head gradients are those of head_forward
    # and head_backward on the same head, bit for bit; consecutive samples
    # share sizes or change them, slices and index rows alike, and a
    # bag_forward kept across steps stays intact. A head scaled by 1e4 gives
    # probabilities of exactly 0 and 1, so some dlogits are exactly 0 and
    # bag^T dlogits holds -0.0 where a negative entry meets them; the
    # reference's adds leave +0 there
    rng = np.random.default_rng(12)
    model = build_model(d_raw=6, hidden=hidden, embed_dim=embed_dim, attn_dim=attn_dim,
                        seed=13)
    model.classifier.w.value *= head_scale
    model.classifier.b.value *= head_scale
    reference = copy.deepcopy(model)
    sizes = [1, 1, 69, 69, 2, 7, 7, 7, 69, 1, 33]
    h_all = rng.uniform(-2, 2, size=(sum(sizes), embed_dim))
    bounds = np.cumsum([0, *sizes])
    bag_rows = [slice(int(start), int(stop)) for start, stop in zip(bounds, bounds[1:])]
    mixups = [rng.choice(len(h_all), size=k, replace=False).astype(np.uint16)
              for k in (69, 69, 1, 5)]
    n = len(bag_rows)
    schedule = ClassifierSchedule(bag_rows, np.eye(2)[np.arange(n) % 2], [
        (np.arange(n), np.empty(0, np.uint16), np.zeros(1, int), np.empty((0, 2))),
        (np.array([0, 11, 12, 2, 3, 13, 14, 1, 4, 5, 6, 7, 8, 9, 10]),
         np.concatenate(mixups), np.cumsum([0, *map(len, mixups)]),
         rng.dirichlet([1.0, 1.0], size=len(mixups)))])
    assert schedule.max_rows == 69
    samples = [sample for rows, labels in schedule for sample in zip(rows, labels)]
    optimizer = Adam([model.head_group], lr=1e-2)
    x = rng.uniform(-2, 2, size=(69, 6))
    kept, seen, nonzero = [], [], []

    def step():
        rows, label = samples[len(seen)]
        reference.arena.value[:] = model.arena.value
        reference.arena.grad[:] = 0.0
        bag_rep, _, probs, cache = reference.head_forward(h_all[rows])
        seen.append(probs.copy())
        probs -= label
        reference.head_backward(bag_rep, cache, probs[None, :])
        assert model.head_group.grad.tobytes() == reference.head_group.grad.tobytes()
        nonzero.append(model.head_group.grad.any())
        if len(seen) == 3:
            kept.extend(model.bag_forward(x))
            kept.extend([array.copy() for array in kept])
        optimizer.step()

    probs = [p.copy() for p, _ in model.aggregator.train_epochs(model, schedule, h_all, step)]
    assert len(seen) == len(samples) == 26
    assert np.concatenate(probs).tobytes() == np.array(seen).tobytes()
    if head_scale == 1.0:
        assert all(nonzero)
    else:
        seen = np.array(seen)
        assert (seen == 0.0).any() and (seen == 1.0).any()
        assert any(nonzero) and not all(nonzero)
    for array, copied in zip(kept[:3], kept[3:]):
        assert array.tobytes() == copied.tobytes()
