import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupledmil.distill import (
    convert_confidence,
    distill_step,
    naive_pseudolabel_step,
    noisy_augment,
    normalize_attention,
)
from coupledmil.gradcore import Adam, cross_entropy, softmax_rows
from coupledmil.milnet import MilModel, ModelConfig
from coupledmil.orchestrator import params_checksum
from oracles import (
    ReferenceAdam,
    bag_attention,
    kl_divergence,
    reference_distill_step,
    teacher_classes,
    teacher_targets,
    views_of_own_arena,
)


def build_model(backbone="gated_attention", seed=0, d_raw=4):
    cfg = ModelConfig(d_raw=d_raw, hidden=(6,), embed_dim=5, attn_dim=3,
                      backbone=backbone)
    return MilModel.build(cfg, np.random.default_rng(seed))


def make_branches(backbone="gated_attention", seed=0):
    """A teacher model and a copy of it, the student, whose embedder the
    steps train under its fixed classifier."""
    teacher = build_model(backbone, seed)
    return teacher, copy.deepcopy(teacher)


def embedder_adam(student, lr):
    return Adam([student.embedder_group], lr=lr)


class TestNormalizeAttention:
    def test_min_max_arithmetic(self):
        assert np.allclose(normalize_attention([0.2, 0.5, 0.8]), [0.0, 0.5, 1.0])

    def test_constant_scores_map_to_ones(self):
        assert np.array_equal(normalize_attention([0.25] * 4), np.ones(4))

    def test_one_hot_unchanged(self):
        assert np.array_equal(normalize_attention([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_attention([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            normalize_attention([1.0, bad, 2.0])


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


# the beta values the docs and tests use, then any finite beta up to 16
BETAS = st.one_of(st.sampled_from([1.0, 2.0, 4.0, 6.0, 8.0]),
                  st.floats(0.0, 16.0, exclude_min=True))


class TestConvertConfidence:
    def test_endpoints_are_one(self):
        for beta in (1.0, 2.0, 6.0, 8.0):
            assert convert_confidence(0.0, beta) == 1.0
            assert convert_confidence(1.0, beta) == 1.0

    def test_midpoint_is_zero(self):
        assert convert_confidence(0.5, 6.0) == 0.0

    def test_direct_evaluation(self):
        assert convert_confidence(0.75, 6.0) == 0.015625

    def test_symmetry_exact_on_grid(self):
        # dyadic grid: 1 - a is exactly representable, so the symmetry must
        # hold bitwise through every float operation
        a = np.arange(1025) / 1024.0
        left = convert_confidence(a, 6.0)
        right = convert_confidence(1.0 - a, 6.0)
        assert np.array_equal(left, right)

    def test_monotone_on_upper_half(self):
        a = np.linspace(0.5, 1.0, 200)
        vals = convert_confidence(a, 6.0)
        assert np.all(np.diff(vals) >= 0.0)

    def test_beta_increase_never_raises_confidence(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 1.0, size=500)
        for b1, b2 in ((1.0, 2.0), (2.0, 6.0), (6.0, 8.0)):
            assert np.all(convert_confidence(a, b2) <= convert_confidence(a, b1) + 1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            convert_confidence(1.2, 6.0)
        with pytest.raises(ValueError):
            convert_confidence(0.5, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_attention(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            convert_confidence(bad, 6.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            convert_confidence(np.array([0.2, bad, 0.8]), 6.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_beta(self, bad):
        with pytest.raises(ValueError, match="beta"):
            convert_confidence(0.5, bad)
        with pytest.raises(ValueError, match="beta"):
            convert_confidence(np.array([0.2, 0.8]), bad)

    def test_scalar_returns_python_float(self):
        assert type(convert_confidence(np.float64(0.75), 6.0)) is float
        assert type(convert_confidence(np.array(0.75), 6.0)) is float

    @settings(max_examples=200, deadline=None, database=None)
    @given(a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=500).map(np.array),
           beta=BETAS, data=st.data())
    def test_scalar_and_array_agree_bitwise(self, a, beta, data):
        whole = convert_confidence(a, beta)
        assert np.array_equal(bits(whole), bits(np.abs(2.0 * a - 1.0) ** beta))
        for i, v in enumerate(a):
            assert bits(convert_confidence(float(v), beta)) == bits(whole[i])
        part = data.draw(st.slices(len(a)))
        assert np.array_equal(bits(convert_confidence(a[part], beta)), bits(whole[part]))


class TestNoisyAugment:
    def test_no_noise_identity(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        out = noisy_augment(x, 0.0, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, x)
        assert out is not x

    def test_full_dropout_zeroes_everything(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        out = noisy_augment(x, 0.0, 1.0, np.random.default_rng(1))
        assert not out.any()

    def test_gaussian_perturbation_mean(self):
        x = np.zeros((10_000, 1))
        out = noisy_augment(x, 0.1, 0.0, np.random.default_rng(2))
        assert abs(out.mean()) <= 0.01

    def test_deterministic_per_stream(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        a = noisy_augment(x, 0.1, 0.1, np.random.default_rng(5))
        b = noisy_augment(x, 0.1, 0.1, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scale", [0.0, 0.3])
    @pytest.mark.parametrize("dropout", [0.0, 0.25, 1.0])
    def test_pinned_value_for_value(self, scale, dropout):
        # x + scale z, then zero where a uniform draw made after z falls
        # below the dropout; a zero scale or dropout draws nothing
        x = np.random.default_rng(0).standard_normal((40, 7))
        x[0, :3] = [-0.0, 0.0, 1e300]
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        out = noisy_augment(x, scale, dropout, rng)
        expected = x + scale * replay.standard_normal(x.shape) if scale > 0 else x
        if dropout > 0:
            expected = np.where(replay.random(x.shape) < dropout, 0.0, expected)
        assert np.array_equal(bits(out), bits(expected))
        assert rng.random() == replay.random()  # the stream advanced alike
        assert not np.shares_memory(out, x)


class TestLosses:
    def test_clean_step_on_teacher_copy_moves_student(self):
        # the target is the teacher's class, not its own soft output, so a
        # student equal to the teacher still has a loss and a gradient on
        # clean rows
        teacher, student = make_branches()
        x = np.random.default_rng(3).uniform(-2, 2, size=(6, 4))
        before = student.arena.value.copy()
        loss = distill_step(student, teacher_classes(teacher, x), x, np.ones(6),
                            embedder_adam(student, 1e-3))
        assert loss > 0.0
        assert not np.array_equal(student.arena.value, before)
        assert np.array_equal(teacher.arena.value, before)

    def test_loss_linear_near_teacher(self):
        # against a fixed class the loss has a nonzero slope at the teacher,
        # so it moves linearly with a small perturbation of the student's
        # classifier weights
        teacher, _ = make_branches()
        x = np.random.default_rng(6).uniform(-2, 2, size=(9, 4))

        def perturbed_loss(delta):
            student = copy.deepcopy(teacher)
            student.classifier.w.value[0, 0] += delta
            return distill_step(student, teacher_classes(teacher, x), x, np.ones(9),
                                embedder_adam(student, 1e-3))

        l0 = perturbed_loss(0.0)
        l1 = perturbed_loss(1e-3)
        l2 = perturbed_loss(2e-3)
        assert l0 > 0
        assert l1 != l0
        assert (l2 - l0) / (l1 - l0) == pytest.approx(2.0, rel=0.05)

    def test_batch_kl_matches_scalar_op(self):
        # the batch loss is the confidence-weighted KL against the one-hot
        # of the teacher's class, row by row
        teacher, student = make_branches(seed=7)
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(8, 4))
        conf = rng.uniform(0, 1, size=8)
        p_t = teacher_targets(teacher, x)
        q = softmax_rows(student.classifier.forward(student.embedder.forward(x)[0]))
        expected = np.mean([conf[i] * kl_divergence(np.eye(2)[np.argmax(p_t[i])], q[i])
                            for i in range(8)])
        loss = distill_step(student, np.argmax(p_t, axis=1), x, conf,
                            embedder_adam(student, 1e-3))
        assert loss == pytest.approx(expected, rel=1e-12)


class TestDistillStep:
    def _batch(self, teacher, x, rng, beta=6.0):
        # mirror the trainer: per-bag attention -> min-max -> confidence;
        # returns the step's (target, x_noised, confidence) arguments
        conf = convert_confidence(normalize_attention(bag_attention(teacher, x)), beta)
        return teacher_classes(teacher, x), noisy_augment(x, 0.1, 0.1, rng), conf

    def test_zero_confidence_means_zero_loss_and_no_update(self):
        teacher, student = make_branches()
        rng = np.random.default_rng(0)
        x = rng.uniform(-2, 2, size=(5, 4))
        noised = noisy_augment(x, 0.1, 0.1, rng)
        opt = embedder_adam(student, 1e-3)
        before = student.arena.value.copy()
        loss = distill_step(student, teacher_classes(teacher, x), noised, np.zeros(5),
                            opt)
        assert loss == 0.0
        assert np.array_equal(student.arena.value, before)

    @pytest.mark.parametrize("backbone", ["max", "mean"])
    def test_degenerate_attention_equals_vanilla(self, backbone):
        # one-hot (max) or constant (mean) attention makes every confidence 1,
        # so the weighted loss must equal the unweighted one exactly
        teacher = build_model(backbone, seed=3)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, size=(8, 4))
        target, noised, conf = self._batch(teacher, x, np.random.default_rng(2))
        assert np.array_equal(conf, np.ones(8))
        student_a = copy.deepcopy(teacher)
        student_b = copy.deepcopy(teacher)
        loss_a = distill_step(student_a, target, noised, conf,
                              embedder_adam(student_a, 1e-3))
        loss_b = distill_step(student_b, target, noised, np.ones(8),
                              embedder_adam(student_b, 1e-3))
        assert abs(loss_a - loss_b) <= 1e-12
        assert np.array_equal(student_a.arena.value, student_b.arena.value)

    def test_confidence_one_zero_halves_single_loss(self):
        teacher, _ = make_branches(seed=11)
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(2, 4))
        noised = noisy_augment(x, 0.1, 0.1, np.random.default_rng(5))

        def run(instances, noised_rows, conf):
            student = copy.deepcopy(teacher)
            return distill_step(student, teacher_classes(teacher, instances),
                                noised_rows, np.array(conf),
                                embedder_adam(student, 1e-3))

        both = run(x, noised, [1.0, 0.0])
        single = run(x[:1], noised[:1], [1.0])
        assert both == pytest.approx(single / 2.0, rel=1e-12)

    def test_teacher_untouched_across_steps(self):
        # the teacher's head is the student's own, and it stays fixed
        teacher, student = make_branches(seed=8)
        frozen = params_checksum([teacher.arena])
        rng = np.random.default_rng(9)
        opt = embedder_adam(student, 1e-3)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=(6, 4))
            distill_step(student, *self._batch(teacher, x, rng), opt)
        assert params_checksum([student.head_group]) == params_checksum([teacher.head_group])
        assert params_checksum([teacher.arena]) == frozen

    def test_gradient_flows_only_to_student(self):
        # only the embedder's gradients are formed: none lands in the head,
        # where it would enter the next classifier phase's first Adam step
        class NoStep:
            def step(self):
                pass

        teacher, student = make_branches(seed=12)
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, size=(6, 4))
        distill_step(student, *self._batch(teacher, x, rng), NoStep())
        assert student.embedder_group.grad.any()
        assert not student.head_group.grad.any()
        assert not teacher.arena.grad.any()

    def test_loss_nonnegative_sweep(self):
        rng = np.random.default_rng(14)
        for seed in range(10):
            teacher, student = make_branches(seed=seed)
            opt = embedder_adam(student, 1e-4)
            for _ in range(3):
                x = rng.uniform(-2, 2, size=(5, 4))
                loss = distill_step(student, *self._batch(teacher, x, rng), opt)
                assert loss >= 0.0

    def test_step_runs_only_the_student_embedder(self, monkeypatch):
        # the teacher's targets arrive as rows; the step embeds only the
        # noised batch, once
        teacher, student = make_branches(seed=6)
        rng = np.random.default_rng(7)
        batch = self._batch(teacher, rng.uniform(-2, 2, size=(4, 4)), rng)
        calls = []
        for name, model in (("teacher", teacher), ("student", student)):
            forward = model.embedder.forward
            monkeypatch.setattr(model.embedder, "forward",
                                lambda x, f=forward, n=name: calls.append(n) or f(x))
        distill_step(student, *batch, embedder_adam(student, 1e-3))
        assert calls == ["student"]


class TestNaivePseudolabel:
    def test_tie_breaks_to_lower_class(self):
        teacher, student = make_branches()
        # zeroed classifier gives exactly [0.5, 0.5] outputs
        teacher.classifier.w.value[:] = 0.0
        teacher.classifier.b.value[:] = 0.0
        x = np.random.default_rng(0).uniform(-2, 2, size=(4, 4))
        probs = teacher_targets(teacher, x)
        assert np.array_equal(probs, np.full((4, 2), 0.5))
        # so every pseudo-label is class 0 (the phase's own argmax is pinned
        # by test_orchestrator's test_teacher_ties_go_to_the_lower_class):
        # the loss is the student's cross-entropy against class 0
        q = softmax_rows(student.classifier.forward(student.embedder.forward(x)[0]))
        assert not np.allclose(q[:, 0], q[:, 1])
        loss = naive_pseudolabel_step(student, x, np.argmax(probs, axis=1),
                                      embedder_adam(student, 1e-5))
        assert loss == pytest.approx(-np.log(q[:, 0]).mean(), rel=1e-12)

    def test_loss_is_teacher_prediction_entropy_floor(self):
        teacher, student = make_branches(seed=21)
        x = np.random.default_rng(1).uniform(-2, 2, size=(5, 4))
        p = teacher_targets(teacher, x)
        expected = np.mean([
            cross_entropy(p[i], np.eye(2)[np.argmax(p[i])]) for i in range(5)
        ])
        loss = naive_pseudolabel_step(student, x, np.argmax(p, axis=1),
                                      embedder_adam(student, 1e-5))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_matches_reference_step(self):
        # unit weights on clean rows: the one distillation loss gives the
        # student of the step written out with a one-hot target, bit for bit
        teacher, _ = make_branches(seed=23)
        rng = np.random.default_rng(3)
        batches = [rng.uniform(-2, 2, size=(int(rng.integers(1, 12)), 4))
                   for _ in range(6)]
        students, losses = [], []
        steps = (lambda student, x, p_t, opt: naive_pseudolabel_step(
                     student, x, np.argmax(p_t, axis=1), opt),
                 lambda student, x, p_t, opt: reference_distill_step(
                     student, x, p_t, np.ones(len(x)), opt))
        for step in steps:
            student = copy.deepcopy(teacher)
            opt = embedder_adam(student, 1e-2)
            losses.append([step(student, x, teacher_targets(teacher, x), opt)
                           for x in batches])
            students.append(student)
        assert losses[0] == losses[1]
        assert np.array_equal(students[0].arena.value, students[1].arena.value)
        assert not np.array_equal(students[0].arena.value, teacher.arena.value)

    def test_descent_on_fixed_batch(self):
        teacher, student = make_branches(seed=22)
        x = np.random.default_rng(2).uniform(-2, 2, size=(20, 4))
        target = teacher_classes(teacher, x)
        opt = embedder_adam(student, 1e-5)
        losses = [naive_pseudolabel_step(student, x, target, opt) for _ in range(10)]
        assert all(b <= a for a, b in zip(losses, losses[1:]))


class TestSnapshots:
    def test_steps_on_student_touch_only_its_arena(self):
        # and within it only the embedder: the head stays as the teacher's
        teacher, student = make_branches(seed=5)
        frozen = teacher.arena.value.copy()
        rng = np.random.default_rng(6)
        opt = embedder_adam(student, 1e-2)
        for _ in range(3):
            x = rng.uniform(-2, 2, size=(6, 4))
            distill_step(student, teacher_classes(teacher, x),
                         noisy_augment(x, 0.1, 0.1, rng), np.ones(6), opt)
        for branch in (teacher, student):
            assert views_of_own_arena(branch)
        assert not np.array_equal(student.embedder_group.value, teacher.embedder_group.value)
        assert np.array_equal(student.head_group.value, teacher.head_group.value)
        assert np.array_equal(teacher.arena.value, frozen)

    def test_distill_pass_matches_per_tensor_adam(self):
        # one pass over a pool in batches: the optimizer over the student's
        # embedder group against one update per embedder tensor
        teacher, _ = make_branches(seed=17)
        rng = np.random.default_rng(18)
        x_all = rng.uniform(-2, 2, size=(40, 4))
        noised = noisy_augment(x_all, 0.1, 0.1, rng)
        conf = rng.uniform(0, 1, size=40)
        target = teacher_classes(teacher, x_all)
        students = []
        for per_tensor in (False, True):
            student = copy.deepcopy(teacher)
            opt = (ReferenceAdam(student.embedder.params, lr=1e-3) if per_tensor
                   else embedder_adam(student, 1e-3))
            for start in range(0, 40, 7):
                sel = slice(start, start + 7)
                distill_step(student, target[sel], noised[sel], conf[sel], opt)
            naive_pseudolabel_step(student, x_all[:9], target[:9], opt)
            students.append(student)
        arena, reference = students
        assert not np.array_equal(arena.arena.value, teacher.arena.value)
        for pa, pref in zip(arena.all_params, reference.all_params):
            assert np.array_equal(pa.value, pref.value)
            assert not pa.grad.any() and not pref.grad.any()
