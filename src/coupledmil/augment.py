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


def _draw_mask(n: int, lam: float, rng: np.random.Generator) -> list[int]:
    # mask==0 on floor(lam*n) uniformly chosen slots (those go to B)
    zeros = math.floor(lam * n)
    mask = [1] * n
    if zeros > 0:
        for slot in rng.choice(n, size=zeros, replace=False).tolist():
            mask[slot] = 0
    return mask


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
    n_a = sum(mask)

    label = (n_a / n) * y_a + ((n - n_a) / n) * y_b
    # one part per slot, so the list is never empty; slot 0 holds a largest
    # group, never empty, and goes to A or B, so the fused bag is never empty
    parts = ([x_a[g] for g, m in zip(groups_a, mask) if m]
             + [x_b[g] for g, m in zip(groups_b, mask) if not m])
    return np.concatenate(parts), label


def masked_single_bag(b, lam: float, n: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The single-masked-bag branch: keep floor(lam*n) pseudo-bags of `b`,
    labeled y_B. Falls back to one non-empty group if the mask empties the bag."""
    x_b, y_b = b
    groups = partition_pseudobags(x_b, n, rng)
    mask = _draw_mask(n, lam, rng)
    kept = [g for g, m in zip(groups, mask) if not m and g.size]
    if not kept:
        # all kept slots were empty; keep one uniformly chosen non-empty group
        kept = [groups[int(rng.choice([i for i, g in enumerate(groups) if g.size]))]]
    return x_b[np.concatenate(kept)], y_b.copy()


def augment_pair(a, b, config, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample lambda and either return the masked B (probability gamma) or the
    mix-up fusion of the pair, labelled by each source's share of the slots.
    `config` is the run's TrainConfig; its `augment_n`, `augment_alpha` and
    `augment_gamma` drive the draw."""
    lam = sample_lambda(config.augment_alpha, rng)
    if rng.random() < config.augment_gamma:
        return masked_single_bag(b, lam, config.augment_n, rng)
    return mixup_bags(a, b, lam, config.augment_n, rng)
