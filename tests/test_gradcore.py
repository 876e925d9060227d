import math

import numpy as np
import pytest

from coupledmil.gradcore import (
    Adam,
    Linear,
    Param,
    _sigmoid,
    softmax_inplace,
    softmax_pair,
    softmax_rows,
)
from coupledmil.milnet import Embedder
from oracles import cross_entropy, grad_check, kl_divergence

LN2 = 0.6931471805599453


def test_param_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        Param([1.0, 2.0])


def _linear(w, b) -> Linear:
    w, b = np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)
    layer = Linear(*w.shape)
    layer.w.value[:] = w
    layer.b.value[:] = b
    return layer


class TestLinear:
    def test_identity(self):
        out = _linear(np.eye(2), np.zeros((1, 2))).forward(np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[1.0, 2.0]])

    def test_direct_arithmetic(self):
        out = _linear([[2.0, 0.0], [0.0, 3.0]], [[1.0, 1.0]]).forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[3.0, 4.0]])

    def test_zero_input_passes_bias(self):
        layer = _linear(np.random.default_rng(0).standard_normal((2, 2)), [[5.0, 7.0]])
        out = layer.forward(np.array([[0.0, 0.0]]))
        assert np.allclose(out, [[5.0, 7.0]])

    def test_shape_mismatch_fails_in_dot(self):
        with pytest.raises(ValueError, match=r"shapes \(1,2\) and \(3,2\) not aligned"):
            Linear(3, 2).forward(np.zeros((1, 2)))

    def test_backward_identity_jacobian(self):
        layer = _linear(np.eye(3), np.zeros((1, 3)))
        x = np.array([[1.0, -2.0, 0.5]])
        g = np.array([[0.3, -0.7, 1.1]])
        dx = layer.backward(x, g)
        assert np.allclose(dx, g)
        assert layer.backward(x, g, input_grad=False) is None

    def test_backward_zero_upstream(self):
        layer = _linear(np.random.default_rng(1).standard_normal((3, 2)), np.zeros((1, 2)))
        x = np.random.default_rng(2).standard_normal((4, 3))
        layer.backward(x, np.zeros((4, 2)))
        assert not layer.w.grad.any() and not layer.b.grad.any()

    def test_backward_shape_mismatch(self):
        # the upstream gradient has the wrong width: the weight gradient
        # cannot take it, and neither gradient is written
        layer = Linear(3, 2)
        with pytest.raises(ValueError):
            layer.backward(np.ones((4, 3)), np.ones((4, 3)))
        assert not layer.w.grad.any() and not layer.b.grad.any()

    def test_init_draws_weight_then_bias_at_fan_in_scale(self):
        layer = Linear(4, 3)
        layer.init(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert np.array_equal(layer.w.value, rng.uniform(-0.5, 0.5, size=(4, 3)))
        assert np.array_equal(layer.b.value, rng.uniform(-0.5, 0.5, size=(1, 3)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(5, 3))
        layer = _linear(rng.uniform(-2, 2, size=(3, 4)), rng.uniform(-2, 2, size=(1, 4)))
        target = rng.uniform(-2, 2, size=(5, 4))

        def loss():
            out = layer.forward(x)
            diff = out - target
            layer.backward(x, 2.0 * diff)
            return float((diff * diff).sum())

        report = grad_check(loss, layer.params)
        assert report.max_rel_error <= 1e-4, report.per_param


def _tanh_layer(x, upstream=None):
    """The embedder's hidden activation alone: x as one row through square
    layers with identity weights and zero biases, so the output is tanh(x)
    exactly; with `upstream`, the gradient with respect to x instead, which
    is the first layer's bias gradient."""
    row = np.asarray(x, dtype=np.float64).reshape(1, -1)
    emb = Embedder((row.size,) * 3)
    for layer in emb.layers:
        layer.w.value[:] = np.eye(row.size)
    out, cache = emb.forward(row)
    if upstream is not None:
        emb.backward(cache, np.asarray(upstream, dtype=np.float64).reshape(1, -1))
        out = emb.layers[0].b.grad
    return out.reshape(np.shape(x))


def _sigmoid_grad(x, upstream):
    s = _sigmoid(x)
    return upstream * s * (1.0 - s)  # as in GatedAttention.backward


ACTIVATIONS = {"tanh": (_tanh_layer, _tanh_layer), "sigmoid": (_sigmoid, _sigmoid_grad)}


class TestActivations:
    def test_tanh_zero(self):
        assert _tanh_layer(np.zeros((1, 1)))[0, 0] == 0.0

    def test_sigmoid_zero(self):
        assert _sigmoid(np.zeros((1, 1)))[0, 0] == 0.5

    def test_tanh_saturates_without_nan(self):
        out = _tanh_layer(np.array([[1e3, 1e6]]))
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 1.0)

    def test_sigmoid_extremes_finite(self):
        out = _sigmoid(np.array([[-1e3, 1e3]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-100)
        assert out[0, 1] == pytest.approx(1.0)

    def test_tanh_derivative_at_zero(self):
        g = np.array([[1.7]])
        out = _tanh_layer(np.zeros((1, 1)), g)
        assert np.allclose(out, g)

    def test_sigmoid_derivative_at_zero(self):
        out = _sigmoid_grad(np.zeros((1, 1)), np.ones((1, 1)))
        assert out[0, 0] == pytest.approx(0.25)

    @pytest.mark.parametrize("kind", ["tanh", "sigmoid"])
    def test_derivative_matches_finite_differences(self, kind):
        forward, backward = ACTIVATIONS[kind]
        rng = np.random.default_rng(11)
        x = rng.uniform(-2, 2, size=(3, 4))
        step = 1e-5
        analytic = backward(x, np.ones_like(x))
        numeric = (forward(x + step) - forward(x - step)) / (2 * step)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() <= 1e-4


def _piecewise_sigmoid(x):
    # two exps on clipped halves, so neither side can overflow
    pos = np.exp(-np.clip(x, 0.0, None))
    neg = np.exp(np.clip(x, None, 0.0))
    return np.where(x >= 0, 1.0 / (1.0 + pos), neg / (1.0 + neg))


def test_sigmoid_bitwise_matches_piecewise_reference():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
             2.2250738585072014e-308, -2.2250738585072014e-308]
    for v in (709.0, 710.0, 745.0, 746.0, 36.0, 37.0, 1e300):
        edges += [v, -v, np.nextafter(v, 0.0), -np.nextafter(v, 0.0)]
    sweep = np.random.default_rng(4).standard_normal(10_000) * 40.0
    x = np.concatenate([edges, sweep]).reshape(-1, 1)
    out, ref = _sigmoid(x), _piecewise_sigmoid(x)
    assert np.array_equal(np.isnan(out), np.isnan(ref))
    assert np.isnan(out).sum() == 1
    finite = ~np.isnan(ref)
    assert np.array_equal(out[finite].view(np.int64), ref[finite].view(np.int64))
    # given buffers, it fills s in place with the allocating form's bytes
    e, s = np.full_like(x, 3.0), np.full_like(x, 3.0)
    assert _sigmoid(x, e, s) is s
    assert s.tobytes() == out.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_inplace(np.array([3.7, 3.7])), [0.5, 0.5])

    def test_stability_large_scores(self):
        out = softmax_inplace(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_single_element(self):
        assert softmax_inplace(np.array([42.0])) == pytest.approx([1.0])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            softmax_inplace(np.array([]))

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s = rng.uniform(-10, 10, size=rng.integers(1, 20))
            a = softmax_inplace(s.copy())
            assert abs(a.sum() - 1.0) <= 1e-9
            b = softmax_inplace(s + rng.uniform(-100, 100))
            assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)) <= 1e-9

    def test_pair_matches_softmax_inplace_bit_for_bit(self):
        # Python floats for the max, differences, sum and quotients, numpy's
        # exp: signed zeros, equal logits, differences at which exp is normal
        # (700), subnormal (709, 745) and 0 (746), infinities and a NaN in
        # either slot, then a random sweep; the pair raises no warning
        edges = [0.0, -0.0, 3.7, np.inf, -np.inf, np.nan]
        pairs = [(x, y) for x in edges for y in edges]
        for d in (700.0, 709.0, 745.0, 746.0):
            pairs += [(0.0, -d), (-d, 0.0), (2.5, 2.5 + d), (2.5 + d, 2.5)]
        rng = np.random.default_rng(9)
        pairs += rng.normal(0, 30, size=(10_000, 2)).tolist()
        for pair in pairs:
            with np.errstate(invalid="ignore"):
                expected = softmax_inplace(np.array(pair))
            p = np.array(pair)
            assert softmax_pair(p) is p
            assert p.tobytes() == expected.tobytes(), pair

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_rows_in_place_match_plain_expressions(self, seed):
        # the two-column max and sum and the in-place arithmetic give the bits
        # of exp(z - rowmax) / rowsum, signed zeros and huge logits included
        z = np.random.default_rng(seed).normal(0, 30, size=(64, 2))
        z[:3, 0] = [-0.0, 0.0, 700.0]
        z[3] = -0.0
        e = np.exp(z - z.max(axis=1, keepdims=True))
        expected = e / e.sum(axis=1, keepdims=True)
        buf = z.copy()
        out = softmax_rows(buf)
        assert out is buf
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


class TestKL:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_analytic_log2(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(LN2, rel=1e-12)

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert kl_divergence(p, q) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            kl_divergence([1.0], [0.5, 0.5])

    def test_unnormalized_input(self):
        with pytest.raises(ValueError, match="sum"):
            kl_divergence([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum"):
            kl_divergence([np.nan, 1.0], [0.5, 0.5])

    def test_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            kl_divergence([1.2, -0.2], [0.5, 0.5])


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_uniform_prediction(self):
        assert cross_entropy([0.5, 0.5], [1.0, 0.0]) == pytest.approx(LN2, rel=1e-12)

    def test_soft_target_entropy(self):
        val = cross_entropy([0.6, 0.4], [0.6, 0.4])
        assert val == pytest.approx(0.6730116670092565, rel=1e-12)
        assert val == pytest.approx(0.6730, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cross_entropy([1.0, 0.0, 0.0], [1.0, 0.0])

    def test_clamped_log_never_nan(self):
        assert math.isfinite(cross_entropy([0.0, 1.0], [1.0, 0.0]))


class TestAdam:
    def test_zero_grad_leaves_value(self):
        p = Param([[1.0, -2.0]])
        opt = Adam([p], lr=0.1)
        before = p.value.copy()
        opt.step()
        assert np.array_equal(p.value, before)

    def test_moves_against_constant_gradient(self):
        p = Param([[0.0]])
        opt = Adam([p], lr=0.01)
        for _ in range(100):
            p.grad[:] = 3.0
            opt.step()
        assert p.value[0, 0] < 0.0
        p2 = Param([[0.0]])
        opt2 = Adam([p2], lr=0.01)
        for _ in range(100):
            p2.grad[:] = -3.0
            opt2.step()
        assert p2.value[0, 0] > 0.0

    def test_step_size_bounded_by_lr(self):
        lr = 0.05
        p = Param([[0.0]])
        opt = Adam([p], lr=lr)
        prev = p.value.copy()
        for _ in range(50):
            p.grad[:] = 0.7
            opt.step()
            assert np.abs(p.value - prev).max() <= lr * (1 + 1e-12)
            prev = p.value.copy()

    def test_grads_zeroed_after_step(self):
        p = Param([[1.0]])
        opt = Adam([p], lr=0.1)
        p.grad[:] = 5.0
        opt.step()
        assert not p.grad.any()

    def test_overflowing_second_moment_is_reported(self):
        # a finite gradient whose square overflows: the update is zero, the
        # value stays finite, and only the moments show it
        p, q = Param([[1.0, 2.0]]), Param([[3.0]])
        opt = Adam([p, q], lr=0.1)
        p.grad[:] = 1.0
        q.grad[:] = 1.0
        opt.step()
        assert opt.moments_finite()
        q.grad[:] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step()
        assert not opt.moments_finite()
        assert np.isfinite(q.value).all()


class TestGradCheck:
    def test_mlp_cross_entropy(self):
        rng = np.random.default_rng(21)
        layer1 = _linear(rng.uniform(-1, 1, size=(3, 4)), rng.uniform(-1, 1, size=(1, 4)))
        layer2 = _linear(rng.uniform(-1, 1, size=(4, 2)), rng.uniform(-1, 1, size=(1, 2)))
        x = rng.uniform(-2, 2, size=(5, 3))
        y = np.array([0.0, 1.0])

        def loss():
            z1 = layer1.forward(x)
            h = np.tanh(z1)
            z2 = layer2.forward(h)
            logits = z2.sum(axis=0, keepdims=True)  # pool rows to one bag logit
            p = softmax_inplace(logits.ravel())
            val = cross_entropy(p, y)
            dlogits = np.repeat((p - y)[None, :], x.shape[0], axis=0)
            dh = layer2.backward(h, dlogits)
            dz1 = dh * (1.0 - h * h)
            layer1.backward(x, dz1, input_grad=False)
            return val

        report = grad_check(loss, [*layer1.params, *layer2.params])
        assert report.max_rel_error <= 1e-4, report.per_param
        assert report.passed

    def test_report_names_worst_param(self):
        w = Param(np.ones((1, 1)), name="only")

        def loss():
            w.grad += 2.0 * w.value
            return float((w.value ** 2).sum())

        report = grad_check(loss, [w])
        assert report.worst_param == "only"
        assert "only" in report.per_param
