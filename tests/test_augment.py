import numpy as np
import pytest

from coupledmil.augment import (
    AugmentConfig,
    AugmentedBag,
    augment_pair,
    masked_single_bag,
    mixup_bags,
    sample_lambda,
)
from coupledmil.bagdata import Bag


def make_bag(bag_id, k, label, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Bag(
        id=bag_id,
        features=rng.standard_normal((k, d)),
        label=np.array(label),
    )


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
        a = make_bag("A", 8, (0.0, 1.0), seed=1)
        b = make_bag("B", 8, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=4)
        fused = mixup_bags(a, b, 0.6, cfg, np.random.default_rng(3))
        # floor(0.6*4)=2 slots to B, 2 remain with A
        assert fused.provenance.kept_a_groups == 2
        assert fused.provenance.kept_b_groups == 2
        assert fused.provenance.kept_a_groups + fused.provenance.kept_b_groups == 4
        assert np.allclose(fused.label, [0.4, 0.6])

    def test_lambda_near_zero_keeps_a_labels_b(self):
        a = make_bag("A", 8, (0.0, 1.0), seed=1)
        b = make_bag("B", 8, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=4)
        fused = mixup_bags(a, b, 0.01, cfg, np.random.default_rng(3))
        # floor(0.01*4)=0: A fully kept, B fully masked, label ~ y_B
        assert fused.provenance.kept_a_groups == 4
        assert fused.provenance.kept_b_groups == 0
        assert fused.provenance.rows_b.size == 0
        assert sorted(fused.provenance.rows_a) == list(range(8))
        assert np.allclose(fused.label, 0.01 * a.label + 0.99 * b.label)

    def test_identical_labels_fixed_point(self):
        a = make_bag("A", 6, (0.3, 0.7), seed=1)
        b = make_bag("B", 6, (0.3, 0.7), seed=2)
        for mode in ("lambda_weighted", "kept_fraction"):
            cfg = AugmentConfig(n=3, label_mode=mode)
            fused = mixup_bags(a, b, 0.37, cfg, np.random.default_rng(0))
            assert np.allclose(fused.label, [0.3, 0.7])

    def test_kept_fraction_mode(self):
        a = make_bag("A", 8, (0.0, 1.0), seed=1)
        b = make_bag("B", 8, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=4, label_mode="kept_fraction")
        fused = mixup_bags(a, b, 0.6, cfg, np.random.default_rng(3))
        ka, kb = fused.provenance.kept_a_groups, fused.provenance.kept_b_groups
        assert np.allclose(fused.label, (ka / 4) * a.label + (kb / 4) * b.label)

    def test_same_bag_rejected(self):
        a = make_bag("A", 4, (1.0, 0.0))
        with pytest.raises(ValueError, match="distinct"):
            mixup_bags(a, a, 0.5, AugmentConfig(), np.random.default_rng(0))

    def test_sources_not_mutated(self):
        a = make_bag("A", 5, (0.0, 1.0), seed=1)
        b = make_bag("B", 5, (1.0, 0.0), seed=2)
        snap_a, snap_b = a.features.copy(), b.features.copy()
        label_a, label_b = a.label.copy(), b.label.copy()
        fused = mixup_bags(a, b, 0.4, AugmentConfig(), np.random.default_rng(5))
        fused.features[:] = 0.0  # the fused matrix is a copy, not a view
        assert np.array_equal(a.features, snap_a) and np.array_equal(b.features, snap_b)
        assert np.array_equal(a.label, label_a) and np.array_equal(b.label, label_b)

    def test_invariants_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            lam = sample_lambda(1.0, rng)
            kept_b = int(np.floor(lam * n))
            kept_a = n - kept_b
            # fused slot count is exactly n for every (lambda, n)
            assert kept_a + kept_b == n
        # and on real bags: provenance disjointness + convex labels
        for trial in range(300):
            n = int(rng.integers(1, 9))
            ka = int(rng.integers(1, 12))
            kb = int(rng.integers(1, 12))
            a = make_bag("A", ka, (0.0, 1.0), seed=trial)
            b = make_bag("B", kb, (1.0, 0.0), seed=1000 + trial)
            lam = sample_lambda(1.0, rng)
            fused = mixup_bags(a, b, lam, AugmentConfig(n=n), rng)
            prov = fused.provenance
            assert prov.kept_a_groups + prov.kept_b_groups == n
            assert prov.rows_a.size + prov.rows_b.size == len(fused)
            for rows, k in ((prov.rows_a, ka), (prov.rows_b, kb)):
                assert len(set(rows.tolist())) == rows.size
                assert ((rows >= 0) & (rows < k)).all()
            assert np.array_equal(fused.features, np.concatenate(
                [a.features[prov.rows_a], b.features[prov.rows_b]]))
            assert (fused.label >= -1e-12).all() and (fused.label <= 1 + 1e-12).all()
            assert abs(fused.label.sum() - 1.0) <= 1e-9
            # label on the segment between y_A and y_B
            t = fused.label[1]  # y_A=[0,1], y_B=[1,0]: first coord = 1-t
            assert -1e-12 <= t <= 1 + 1e-12
            assert np.allclose(fused.label, t * a.label + (1 - t) * b.label)


class TestAugmentPair:
    def test_gamma_one_always_returns_masked_b(self):
        a = make_bag("A", 8, (0.0, 1.0), seed=1)
        b = make_bag("B", 8, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=4, gamma=1.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = augment_pair(a, b, cfg, rng)
            assert np.array_equal(out.label, b.label)
            assert out.provenance.source_b is None

    def test_gamma_zero_always_fuses(self):
        a = make_bag("A", 8, (0.0, 1.0), seed=1)
        b = make_bag("B", 8, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=4, gamma=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = augment_pair(a, b, cfg, rng)
            assert out.provenance.source_b == "B"

    def test_branch_frequency(self):
        a = make_bag("A", 6, (0.0, 1.0), seed=1)
        b = make_bag("B", 6, (1.0, 0.0), seed=2)
        cfg = AugmentConfig(n=2, gamma=0.5)
        rng = np.random.default_rng(123)
        hits = sum(
            augment_pair(a, b, cfg, rng).provenance.source_b is None
            for _ in range(10_000)
        )
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_single_pseudobag_returns_whole_bag(self):
        # n=1: the masked-B branch keeps zero slots, so the non-empty fallback
        # must hand back the whole bag in original instance order
        b = make_bag("B", 7, (1.0, 0.0), seed=4)
        cfg = AugmentConfig(n=1, gamma=1.0)
        out = augment_pair(make_bag("A", 7, (0.0, 1.0)), b, cfg,
                           np.random.default_rng(9))
        assert np.array_equal(out.features, b.features)
        assert np.array_equal(out.provenance.rows_a, np.arange(7))

    def test_small_bags_never_empty(self):
        rng = np.random.default_rng(31)
        cfg = AugmentConfig(n=6, gamma=0.5)
        for trial in range(500):
            a = make_bag("A", int(rng.integers(1, 4)), (0.0, 1.0), seed=trial)
            b = make_bag("B", int(rng.integers(1, 4)), (1.0, 0.0), seed=900 + trial)
            out = augment_pair(a, b, cfg, rng)
            assert len(out) >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(n=0)
    with pytest.raises(ValueError):
        AugmentConfig(alpha_beta=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(gamma=1.5)
    with pytest.raises(ValueError):
        AugmentConfig(label_mode="nonsense")


def test_masked_single_bag_label_is_exact_copy():
    b = make_bag("B", 9, (0.25, 0.75), seed=3)
    out = masked_single_bag(b, 0.8, AugmentConfig(n=3), np.random.default_rng(1))
    assert np.array_equal(out.label, b.label)
    assert out.label is not b.label


def test_augmented_bag_is_a_validated_bag():
    out = augment_pair(make_bag("A", 5, (0.0, 1.0)), make_bag("B", 5, (1.0, 0.0)),
                       AugmentConfig(n=2), np.random.default_rng(0))
    assert isinstance(out, Bag)
    with pytest.raises(ValueError, match="sum"):
        AugmentedBag(id="x", features=out.features, label=[0.5, 0.4],
                     provenance=out.provenance)
