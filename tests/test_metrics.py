from dataclasses import asdict

import numpy as np
import pytest

from coupledmil.metrics import MetricError, evaluate_scores, f1_accuracy, roc_auc
from oracles import pairwise_auc


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_pairwise_concordance_three_quarters(self):
        # pairs: (.9,.6)+, (.9,.2)+, (.3,.6)-, (.3,.2)+  ->  3/4
        assert roc_auc([0.9, 0.6, 0.3, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_exact_fraction(self):
        # 7 of 12 pairs concordant; a float sum of the trapezoid areas lands
        # one ULP below the double nearest 7/12 on this ranking
        assert roc_auc([0, 4, 0, 2, 0, 1, 2, 2, 2, 0],
                       [1, 0, 0, 1, 1, 0, 1, 1, 1, 0]) == 7 / 12

    def test_equals_pairwise_fraction_bit_for_bit(self):
        # both are an exact count of half-pairs divided once
        rng = np.random.default_rng(23)
        for trial in range(300):
            n = int(rng.integers(2, 80))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[rng.integers(n)] = 1 - labels[0]
            scores = rng.integers(0, 3 + trial % 20, size=n)
            assert roc_auc(scores, labels) == pairwise_auc(scores, labels)

    def test_all_ties_give_half(self):
        assert roc_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [0, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = rng.uniform(-3, 3, size=n)
            base = roc_auc(scores, labels)
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-2, 2))
            warped = np.tanh(scores) * a + b  # strictly monotone
            assert abs(roc_auc(warped, labels) - base) <= 1e-9

    def test_negated_scores_complement(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(4, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, size=n), 1)  # force some ties
            total = roc_auc(scores, labels) + roc_auc(-scores, labels)
            assert abs(total - 1.0) <= 1e-9


class TestPairwiseOracle:
    def test_reversed_perfect_scores(self):
        assert pairwise_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_single_concordant_pair(self):
        assert pairwise_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_equivalence_sweep(self):
        rng = np.random.default_rng(17)
        for trial in range(1000):
            n = int(rng.integers(2, 101))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[rng.integers(n)] = 1 - labels[0]
            if trial % 2 == 0:
                scores = rng.uniform(0, 1, size=n)
            else:
                scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)  # heavy ties
            assert abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-9


class TestF1Accuracy:
    def test_all_correct(self):
        f1, acc = f1_accuracy([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert (f1, acc) == (1.0, 1.0)

    def test_no_positive_predictions(self):
        f1, acc = f1_accuracy([0.1, 0.2, 0.3], [1, 1, 0])
        assert f1 == 0.0
        assert acc == pytest.approx(1 / 3)

    def test_confusion_matrix_case(self):
        # TP=1, FP=1, FN=1, TN=1
        f1, acc = f1_accuracy([0.9, 0.9, 0.1, 0.1], [1, 0, 1, 0])
        assert f1 == pytest.approx(0.5)
        assert acc == pytest.approx(0.5)

    def test_threshold_is_inclusive(self):
        f1, acc = f1_accuracy([0.5], [1], threshold=0.5)
        assert (f1, acc) == (1.0, 1.0)


def test_evaluate_scores_fields():
    res = evaluate_scores([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
    assert res.auc == 1.0 and res.f1 == 1.0 and res.acc == 1.0
    assert res.count == 4 and res.threshold == 0.5
    assert set(asdict(res)) == {"auc", "f1", "acc", "count", "threshold"}
    assert 0.0 <= res.auc <= 1.0 and 0.0 <= res.f1 <= 1.0 and 0.0 <= res.acc <= 1.0


@pytest.mark.parametrize("scores", [
    [np.nan, np.nan, np.nan, np.nan],
    [0.9, np.nan, 0.3, 0.2],
    [0.9, 0.6, np.inf, 0.2],
])
@pytest.mark.parametrize("metric", [roc_auc, pairwise_auc, f1_accuracy, evaluate_scores])
def test_non_finite_scores_rejected(metric, scores):
    with pytest.raises(MetricError, match="non-finite"):
        metric(scores, [1, 0, 1, 0])


@pytest.mark.parametrize("labels", [[1, 0, 2, 0], [1, 0, 0.5, 0], [1, 0, np.nan, 0],
                                    [1, -1, 1, 0]])
@pytest.mark.parametrize("metric", [roc_auc, pairwise_auc, f1_accuracy, evaluate_scores])
def test_non_binary_labels_rejected(metric, labels):
    with pytest.raises(MetricError, match="other than 0 or 1"):
        metric([0.9, 0.1, 0.5, 0.2], labels)
