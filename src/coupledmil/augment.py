"""Bag-level augmentation: pseudo-bag masking and mix-up of bag pairs.

A bag here is a `(features, label)` pair: its K x d instance rows and its
label. A single binary mask over the n pseudo-bag slots drives both sources:
bag A keeps the slots where the mask is 1, bag B the slots where it is 0.
With a Beta-sampled coefficient lambda, floor(lambda*n) slots go to B and
the rest to A, so the fused bag always carries exactly n pseudo-bags, and
its label weights each source's label by the share of the n slots it holds.
"""

from __future__ import annotations

import math

import numpy as np

from .bagdata import partition_pseudobags


def sample_lambda(alpha: float, rng: np.random.Generator) -> float:
    """Draw lambda ~ Beta(alpha, alpha), strictly inside (0, 1)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    lam = float(rng.beta(alpha, alpha))
    while lam <= 0.0 or lam >= 1.0:  # boundary draws have measure ~0
        lam = float(rng.beta(alpha, alpha))
    return lam


def _draw_mask(n: int, lam: float, rng: np.random.Generator) -> np.ndarray:
    # mask==0 on floor(lam*n) uniformly chosen slots (those go to B)
    zeros = math.floor(lam * n)
    mask = np.ones(n, dtype=np.int64)
    if zeros > 0:
        drop = rng.choice(n, size=zeros, replace=False)
        mask[drop] = 0
    return mask


def _rows(groups, slots) -> np.ndarray:
    # instance indices of the given slots, slot by slot
    return np.concatenate([np.empty(0, dtype=np.int64), *(groups[s] for s in slots)])


def mixup_bags(a, b, lam: float, n: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Fuse masked pseudo-bags of two bags: A's kept rows, then B's,
    labelled (|keep_A|/n)*y_A + (|keep_B|/n)*y_B, each source weighted by
    its share of the n slots. Fresh partitions are drawn per call.
    """
    (x_a, y_a), (x_b, y_b) = a, b
    groups_a = partition_pseudobags(x_a, n, rng)
    groups_b = partition_pseudobags(x_b, n, rng)
    mask = _draw_mask(n, lam, rng)
    keep_a = [i for i in range(n) if mask[i] == 1]
    keep_b = [i for i in range(n) if mask[i] == 0]

    label = (len(keep_a) / n) * y_a + (len(keep_b) / n) * y_b
    # slot 0 holds a largest group, never empty, and goes to A or B; so the
    # fused bag is never empty
    rows_a, rows_b = _rows(groups_a, keep_a), _rows(groups_b, keep_b)
    return np.concatenate([x_a[rows_a], x_b[rows_b]]), label


def masked_single_bag(b, lam: float, n: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The single-masked-bag branch: keep floor(lam*n) pseudo-bags of `b`,
    labeled y_B. Falls back to one non-empty group if the mask empties the bag."""
    x_b, y_b = b
    groups = partition_pseudobags(x_b, n, rng)
    mask = _draw_mask(n, lam, rng)
    rows = _rows(groups, [i for i in range(n) if mask[i] == 0])
    if rows.size == 0:
        # all kept slots were empty; keep one uniformly chosen non-empty group
        rows = groups[int(rng.choice([i for i, g in enumerate(groups) if g.size]))]
    return x_b[rows], y_b.copy()


def augment_pair(a, b, config, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample lambda and either return the masked B (probability gamma) or the
    mix-up fusion of the pair, labelled by each source's share of the slots.
    `config` is the run's TrainConfig; its `augment_n`, `augment_alpha` and
    `augment_gamma` drive the draw."""
    lam = sample_lambda(config.augment_alpha, rng)
    if rng.random() < config.augment_gamma:
        return masked_single_bag(b, lam, config.augment_n, rng)
    return mixup_bags(a, b, lam, config.augment_n, rng)
