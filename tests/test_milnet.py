import copy

import numpy as np
import pytest

from coupledmil.gradcore import Adam, cross_entropy, softmax_inplace, softmax_rows
from coupledmil.milnet import (
    BagClassifier,
    Embedder,
    FixedPooling,
    GatedAttention,
    MilModel,
    ModelConfig,
)
from oracles import bag_backward, grad_check, views_of_own_arena


def build_model(d_raw=4, hidden=(6,), embed_dim=5, attn_dim=3, backbone="gated_attention",
                seed=0):
    cfg = ModelConfig(d_raw=d_raw, hidden=hidden, embed_dim=embed_dim,
                      attn_dim=attn_dim, backbone=backbone)
    return MilModel.build(cfg, np.random.default_rng(seed))


class TestEmbedder:
    def test_identity_single_layer(self):
        emb = Embedder((3, 3))
        emb.layers[0][0].value[:] = np.eye(3)
        x = np.random.default_rng(0).standard_normal((5, 3))
        h, _ = emb.forward(x)
        assert np.array_equal(h, x)

    def test_zero_weights_zero_output(self):
        emb = Embedder((3, 4, 2))
        x = np.random.default_rng(0).standard_normal((5, 3))
        h, _ = emb.forward(x)
        assert not h.any()

    def test_dimension_mismatch(self):
        emb = Embedder((3, 2))
        with pytest.raises(ValueError, match="expects"):
            emb.forward(np.zeros((4, 5)))


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
        clf = BagClassifier(2, 2)
        clf.w.value[:] = np.array([[0.0, 1.0], [0.0, 0.0]])  # logit_1 = first feature
        h = np.array([[0.1, 9.0], [5.0, -1.0], [2.0, 0.0]])
        bag_rep, a, _ = FixedPooling("max").forward(h, clf)
        assert np.allclose(a, [0.0, 1.0, 0.0])
        assert np.allclose(bag_rep, [[5.0, -1.0]])

    def test_max_is_the_selected_row_and_routes_its_gradient(self):
        # a one-hot weighted average is the selected row bit for bit, and
        # only that row receives the bag gradient
        rng = np.random.default_rng(5)
        model = build_model(backbone="max", seed=2)
        for k in (1, 4, 33):
            h = rng.standard_normal((k, 5)) * 1e3
            bag_rep, a, cache = model.aggregator.forward(h, model.classifier)
            k_star = int(np.argmax(h @ model.classifier.w.value[:, 1]
                                   + model.classifier.b.value[0, 1]))
            assert np.array_equal(a, np.eye(k)[k_star])
            assert np.array_equal(bag_rep, h[k_star:k_star + 1])
            d_bag = rng.standard_normal((1, 5))
            dh = model.aggregator.backward(cache, d_bag)
            assert np.array_equal(dh[k_star], d_bag[0])
            assert not np.delete(dh, k_star, axis=0).any()
            assert model.aggregator.backward(cache, d_bag, input_grad=False) is None

    def test_max_requires_classifier(self):
        with pytest.raises(ValueError, match="classifier"):
            FixedPooling("max").forward(np.zeros((2, 3)))

    def test_empty_bag_rejected(self):
        model = build_model()
        with pytest.raises(ValueError, match="empty"):
            model.aggregator.forward(np.zeros((0, 5)), model.classifier)

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
        clf = BagClassifier(4, 2)
        p = softmax_rows(clf.logits(np.random.default_rng(0).standard_normal((1, 4)))).ravel()
        assert np.allclose(p, [0.5, 0.5])

    def test_probability_monotone_in_weight(self):
        clf = BagClassifier(1, 2)
        h = np.array([[2.0]])
        probs = []
        for w in np.linspace(0.0, 5.0, 11):
            clf.w.value[:] = np.array([[0.0, w]])
            probs.append(softmax_rows(clf.logits(h))[0, 1])
        assert all(b > a for a, b in zip(probs, probs[1:]))
        assert probs[-1] > 0.9999

    def test_dimension_mismatch(self):
        clf = BagClassifier(4, 2)
        with pytest.raises(ValueError):
            clf.logits(np.zeros((1, 3)))


class TestBagForward:
    def test_single_instance_collapse(self):
        model = build_model()
        x = np.random.default_rng(1).uniform(-2, 2, size=(1, 4))
        trace = model.bag_forward(x)
        h, _ = model.embedder.forward(x)
        assert np.allclose(trace.probs, softmax_rows(model.classifier.logits(h)).ravel())

    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_permutation_invariance(self, backbone):
        model = build_model(backbone=backbone)
        rng = np.random.default_rng(13)
        for trial in range(50):
            x = rng.uniform(-2, 2, size=(int(rng.integers(2, 12)), 4))
            base = model.bag_forward(x).probs
            perm = model.bag_forward(x[rng.permutation(x.shape[0])]).probs
            assert np.max(np.abs(base - perm) / np.maximum(np.abs(base), 1e-300)) <= 1e-9

    def test_duplicated_instances_mean_invariant(self):
        model = build_model(backbone="mean")
        x = np.random.default_rng(5).uniform(-2, 2, size=(4, 4))
        doubled = np.concatenate([x, x])
        a = model.bag_forward(x)
        b = model.bag_forward(doubled)
        assert np.max(np.abs(a.bag_rep - b.bag_rep)) <= 1e-12
        assert np.allclose(a.probs, b.probs)

    def test_trace_invariant_bag_rep(self):
        rng = np.random.default_rng(2)
        for backbone in ("mean", "max", "gated_attention"):
            model = build_model(backbone=backbone)
            x = rng.uniform(-2, 2, size=(6, 4))
            t = model.bag_forward(x)
            recon = t.attention[None, :] @ t.instance_reps
            assert np.max(np.abs(t.bag_rep - recon)) <= 1e-9
            assert abs(t.attention.sum() - 1.0) <= 1e-9
            assert abs(t.probs.sum() - 1.0) <= 1e-9

    def test_gate_score_shift_invariance(self):
        model = build_model()
        agg = model.aggregator
        x = np.random.default_rng(8).uniform(-2, 2, size=(5, 4))
        h, _ = model.embedder.forward(x)
        e, _ = agg.gate_scores(h)
        _, a, _ = agg.forward(h, model.classifier)
        shifted = softmax_inplace(e + 37.5)
        assert np.max(np.abs(shifted - a) / np.maximum(np.abs(a), 1e-300)) <= 1e-9


class TestGradients:
    def _loss_through_model(self, model, x, y):
        def loss():
            trace = model.bag_forward(x)
            val = cross_entropy(trace.probs, y)
            dlogits = (trace.probs - y)[None, :]
            bag_backward(model, trace, dlogits, train_embedder=True)
            return val
        return loss

    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_full_bag_gradients(self, backbone):
        rng = np.random.default_rng(31)
        model = build_model(d_raw=3, hidden=(4,), embed_dim=3, attn_dim=3,
                            backbone=backbone, seed=5)
        x = rng.uniform(-2, 2, size=(4, 3))
        y = np.array([0.0, 1.0])
        report = grad_check(self._loss_through_model(model, x, y), model.all_params)
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
            probs = softmax_rows(model.classifier.logits(h)).ravel()
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
    ("num_classes", 0), ("num_classes", 1),
])
def test_model_config_rejects_bad_dims(field, value):
    with pytest.raises(ValueError):
        ModelConfig(**{"d_raw": 3, field: value})


@pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
def test_num_params_matches_built_model(backbone):
    cfg = ModelConfig(d_raw=5, hidden=(7, 3), embed_dim=4, attn_dim=6,
                      num_classes=3, backbone=backbone)
    assert cfg.num_params == sum(p.value.size for p in MilModel(cfg).all_params)


class TestArena:
    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_groups_span_their_params(self, backbone):
        model = build_model(backbone=backbone)
        assert views_of_own_arena(model)
        for group, params in ((model.embedder_group, model.embedder.params),
                              (model.head_group, model.head_params),
                              (model.classifier_group, model.classifier.params)):
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
        trace = clone.bag_forward(x)
        bag_backward(clone, trace, (trace.probs - [1.0, 0.0])[None, :])
        Adam([clone.head_group], lr=1e-2).step()
        assert views_of_own_arena(clone)
        assert not np.array_equal(clone.arena.value, before)
        assert np.array_equal(model.arena.value, before)
        assert not model.arena.grad.any()


@pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
def test_classifier_phase_head_gradients_equal_bag_backward(backbone):
    # the classifier phase skips the gradient with respect to h; the
    # parameter gradients must not notice
    model = build_model(backbone=backbone, seed=9)
    rng = np.random.default_rng(10)
    for k in (1, 3, 17):
        x = rng.uniform(-2, 2, size=(k, 4))
        trace = model.bag_forward(x)
        dlogits = (trace.probs - [0.0, 1.0])[None, :]
        bag_backward(model, trace, dlogits, train_embedder=True)
        via_bag = model.head_group.grad.copy()
        model.arena.grad[:] = 0.0
        h = trace.instance_reps
        bag_rep, _, probs, agg_cache = model.head_forward(h)
        assert np.array_equal(probs, trace.probs)
        assert model.head_backward(bag_rep, agg_cache, dlogits, input_grad=False) is None
        assert via_bag.any()
        assert np.array_equal(model.head_group.grad, via_bag)
        model.arena.grad[:] = 0.0
