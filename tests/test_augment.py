import numpy as np
import pytest

from coupledmil.augment import (
    augment_pair,
    masked_single_bag,
    mixup_bags,
    sample_lambda,
)
from coupledmil.orchestrator import TrainConfig
from oracles import decoded_rows, encoded_bag, replay_mixup_slots

A, B = 0, 1  # the source markers of encoded_bag


def mix(a, b, lam, n, rng):
    """`mixup_bags` with the groups the oracle says it keeps from each
    source: (features, label, kept A groups, kept B groups)."""
    kept_a, kept_b = replay_mixup_slots(len(a[0]), len(b[0]), lam, n, rng)
    x, y = mixup_bags(a, b, lam, n, rng)
    return x, y, kept_a, kept_b


class TestSampleLambda:
    def test_uniform_moments(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_lambda(1.0, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.5) <= 0.02
        assert abs(draws.var() - 1 / 12) <= 0.01

    def test_concentration_grows_with_alpha(self):
        rng = np.random.default_rng(1)
        tight = np.array([sample_lambda(5.0, rng) for _ in range(10_000)])
        # Beta(a, a) variance is 1/(8a+4); alpha=5 must beat alpha=1
        assert tight.var() < 1 / 12
        assert abs(tight.var() - 1 / 44) <= 0.01

    def test_reproducible_sequence(self):
        a = [sample_lambda(2.0, np.random.default_rng(7)) for _ in range(5)]
        b = [sample_lambda(2.0, np.random.default_rng(7)) for _ in range(5)]
        assert a == b

    def test_open_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            lam = sample_lambda(0.05, rng)  # tiny alpha piles mass at the edges
            assert 0.0 < lam < 1.0

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sample_lambda(0.0, np.random.default_rng(0))


class TestMixup:
    def test_spec_arithmetic_case(self):
        a = encoded_bag(A, 8, (0.0, 1.0))
        b = encoded_bag(B, 8, (1.0, 0.0))
        x, y, kept_a, kept_b = mix(a, b, 0.6, 4, np.random.default_rng(3))
        # floor(0.6*4)=2 slots to B, 2 remain with A
        assert len(kept_a) == 2
        assert len(kept_b) == 2
        assert np.array_equal(decoded_rows(x, A), np.concatenate(kept_a))
        assert np.array_equal(decoded_rows(x, B), np.concatenate(kept_b))
        assert np.allclose(y, [0.5, 0.5])

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("lam", [0.01, 0.3, 0.6, 0.9])
    def test_label_weights_each_source_by_its_slots(self, lam, n):
        # n divides both bag sizes, so every slot of A holds 8/n rows and
        # every slot of B 4/n: the fused rows tell how many slots each holds
        a = encoded_bag(A, 8, (0.0, 1.0))
        b = encoded_bag(B, 4, (1.0, 0.0))
        x, y = mixup_bags(a, b, lam, n, np.random.default_rng(3))
        slots_a = decoded_rows(x, A).size * n // 8
        slots_b = decoded_rows(x, B).size * n // 4
        assert (slots_a, slots_b) == (n - int(np.floor(lam * n)), int(np.floor(lam * n)))
        assert np.array_equal(y, (slots_a / n) * a[1] + (slots_b / n) * b[1])

    def test_identical_labels_fixed_point(self):
        a = encoded_bag(A, 6, (0.3, 0.7))
        b = encoded_bag(B, 6, (0.3, 0.7))
        _, y = mixup_bags(a, b, 0.37, 3, np.random.default_rng(0))
        assert np.allclose(y, [0.3, 0.7])

    def test_sources_not_mutated(self):
        a = encoded_bag(A, 5, (0.0, 1.0))
        b = encoded_bag(B, 5, (1.0, 0.0))
        snap_a, snap_b = a[0].copy(), b[0].copy()
        label_a, label_b = a[1].copy(), b[1].copy()
        x, y = mixup_bags(a, b, 0.4, 4, np.random.default_rng(5))
        x[:] = 0.0  # the fused matrix is a copy, not a view
        y[:] = 0.0
        assert np.array_equal(a[0], snap_a) and np.array_equal(b[0], snap_b)
        assert np.array_equal(a[1], label_a) and np.array_equal(b[1], label_b)

    def test_invariants_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            lam = sample_lambda(1.0, rng)
            kept_b = int(np.floor(lam * n))
            kept_a = n - kept_b
            # fused slot count is exactly n for every (lambda, n)
            assert kept_a + kept_b == n
        # and on real bags: disjoint source rows + convex labels
        for trial in range(300):
            n = int(rng.integers(1, 9))
            ka = int(rng.integers(1, 12))
            kb = int(rng.integers(1, 12))
            a = encoded_bag(A, ka, (0.0, 1.0))
            b = encoded_bag(B, kb, (1.0, 0.0))
            lam = sample_lambda(1.0, rng)
            x, y, kept_a, kept_b = mix(a, b, lam, n, rng)
            rows_a, rows_b = decoded_rows(x, A), decoded_rows(x, B)
            assert len(kept_a) + len(kept_b) == n
            assert rows_a.size + rows_b.size == len(x)
            assert np.array_equal(rows_a, np.concatenate([[], *kept_a]))
            assert np.array_equal(rows_b, np.concatenate([[], *kept_b]))
            for rows, k in ((rows_a, ka), (rows_b, kb)):
                assert len(set(rows.tolist())) == rows.size
                assert ((rows >= 0) & (rows < k)).all()
            # A's rows come first, then B's
            assert np.array_equal(x, np.concatenate([a[0][rows_a], b[0][rows_b]]))
            assert (y >= -1e-12).all() and (y <= 1 + 1e-12).all()
            assert abs(y.sum() - 1.0) <= 1e-9
            # label on the segment between y_A and y_B
            t = y[1]  # y_A=[0,1], y_B=[1,0]: first coord = 1-t
            assert -1e-12 <= t <= 1 + 1e-12
            assert np.allclose(y, t * a[1] + (1 - t) * b[1])


class TestAugmentPair:
    # with bags of at least n rows every slot is non-empty, so the mix-up
    # branch always keeps rows of A and the masked branch never does

    def test_gamma_one_always_returns_masked_b(self):
        a = encoded_bag(A, 8, (0.0, 1.0))
        b = encoded_bag(B, 8, (1.0, 0.0))
        cfg = TrainConfig(augment_n=4, augment_gamma=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = augment_pair(a, b, cfg, rng)
            assert np.array_equal(y, b[1])
            assert decoded_rows(x, A).size == 0

    def test_gamma_zero_always_fuses(self):
        a = encoded_bag(A, 8, (0.0, 1.0))
        b = encoded_bag(B, 8, (1.0, 0.0))
        cfg = TrainConfig(augment_n=4, augment_gamma=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = augment_pair(a, b, cfg, rng)
            assert decoded_rows(x, A).size > 0
            assert not np.array_equal(y, b[1])

    def test_branch_frequency(self):
        a = encoded_bag(A, 6, (0.0, 1.0))
        b = encoded_bag(B, 6, (1.0, 0.0))
        cfg = TrainConfig(augment_n=2, augment_gamma=0.5)
        rng = np.random.default_rng(123)
        hits = sum(
            decoded_rows(augment_pair(a, b, cfg, rng)[0], A).size == 0
            for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_single_pseudobag_returns_whole_bag(self):
        # n=1: the masked-B branch keeps zero slots, so the non-empty fallback
        # must hand back the whole bag in original instance order
        b = encoded_bag(B, 7, (1.0, 0.0))
        cfg = TrainConfig(augment_n=1, augment_gamma=1.0)
        x, y = augment_pair(encoded_bag(A, 7, (0.0, 1.0)), b, cfg,
                            np.random.default_rng(9))
        assert np.array_equal(x, b[0])
        assert np.array_equal(decoded_rows(x, B), np.arange(7))
        assert np.array_equal(y, b[1])

    def test_small_bags_never_empty(self):
        rng = np.random.default_rng(31)
        cfg = TrainConfig(augment_n=6, augment_gamma=0.5)
        for _ in range(500):
            a = encoded_bag(A, int(rng.integers(1, 4)), (0.0, 1.0))
            b = encoded_bag(B, int(rng.integers(1, 4)), (1.0, 0.0))
            x, _ = augment_pair(a, b, cfg, rng)
            assert len(x) >= 1


def test_masked_single_bag_label_is_exact_copy():
    b = encoded_bag(B, 9, (0.25, 0.75))
    _, y = masked_single_bag(b, 0.8, 3, np.random.default_rng(1))
    assert np.array_equal(y, b[1])
    assert y is not b[1]
