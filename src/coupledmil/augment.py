"""Bag-level augmentation: pseudo-bag masking and mix-up of bag pairs.

A single binary mask over the n pseudo-bag slots drives both sources: bag A
keeps the slots where the mask is 1, bag B the slots where it is 0. With a
Beta-sampled coefficient lambda, floor(lambda*n) slots go to B and the rest
to A, so the fused bag always carries exactly n pseudo-bags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bagdata import Bag, partition_pseudobags


@dataclass
class AugmentConfig:
    n: int = 4                     # pseudo-bags per source bag
    alpha_beta: float = 1.0        # Beta(alpha, alpha) parameter for lambda
    gamma: float = 0.5             # probability of the single-masked-bag branch
    label_mode: str = "lambda_weighted"  # or "kept_fraction"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.alpha_beta <= 0:
            raise ValueError(f"alpha_beta must be > 0, got {self.alpha_beta}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.label_mode not in ("lambda_weighted", "kept_fraction"):
            raise ValueError(f"unknown label_mode: {self.label_mode!r}")


@dataclass
class Provenance:
    source_a: str
    source_b: str | None
    lam: float
    mask: tuple[int, ...]          # per slot: 1 = kept from A, 0 = kept from B
    rows_a: np.ndarray             # source_a instance indices, in fused order
    rows_b: np.ndarray             # source_b instance indices, after rows_a
    kept_a_groups: int = 0
    kept_b_groups: int = 0


@dataclass(eq=False, kw_only=True)
class AugmentedBag(Bag):
    provenance: Provenance


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


def mixup_bags(a: Bag, b: Bag, lam: float, config: AugmentConfig,
               rng: np.random.Generator) -> AugmentedBag:
    """Fuse masked pseudo-bags of two distinct bags.

    Label modes: `lambda_weighted` mixes labels as lam*y_A + (1-lam)*y_B;
    `kept_fraction` weights each label by that source's share of kept slots.
    Fresh partitions are drawn per call.
    """
    if a.id == b.id:
        raise ValueError(f"mixup requires two distinct bags, got {a.id!r} twice")
    n = config.n
    groups_a = partition_pseudobags(a, n, rng)
    groups_b = partition_pseudobags(b, n, rng)
    mask = _draw_mask(n, lam, rng)
    keep_a = [i for i in range(n) if mask[i] == 1]
    keep_b = [i for i in range(n) if mask[i] == 0]

    # slot 0 holds a largest group, never empty, and goes to A or B; so the
    # fused bag is never empty
    rows_a = _rows(groups_a, keep_a)
    rows_b = _rows(groups_b, keep_b)

    if config.label_mode == "lambda_weighted":
        label = lam * a.label + (1.0 - lam) * b.label
    else:
        label = (len(keep_a) / n) * a.label + (len(keep_b) / n) * b.label

    prov = Provenance(
        source_a=a.id, source_b=b.id, lam=lam, mask=tuple(int(m) for m in mask),
        rows_a=rows_a, rows_b=rows_b,
        kept_a_groups=len(keep_a), kept_b_groups=len(keep_b),
    )
    return AugmentedBag(
        id=f"mix({a.id},{b.id})",
        features=np.concatenate([a.features[rows_a], b.features[rows_b]]),
        label=label, provenance=prov,
    )


def masked_single_bag(b: Bag, lam: float, config: AugmentConfig,
                      rng: np.random.Generator) -> AugmentedBag:
    """The single-masked-bag branch: keep floor(lam*n) pseudo-bags of `b`,
    labeled y_B. Falls back to one non-empty group if the mask empties the bag."""
    n = config.n
    groups = partition_pseudobags(b, n, rng)
    mask = _draw_mask(n, lam, rng)
    keep = [i for i in range(n) if mask[i] == 0]
    rows = _rows(groups, keep)
    if rows.size == 0:
        # all kept slots were empty; keep one uniformly chosen non-empty group
        slot = int(rng.choice([i for i, g in enumerate(groups) if g.size]))
        rows = groups[slot]
        keep = [slot]
    prov = Provenance(
        source_a=b.id, source_b=None, lam=lam, mask=tuple(int(m) for m in mask),
        rows_a=rows, rows_b=np.empty(0, dtype=np.int64),
        kept_a_groups=0, kept_b_groups=len(keep),
    )
    return AugmentedBag(
        id=f"masked({b.id})", features=b.features[rows], label=b.label.copy(),
        provenance=prov,
    )


def augment_pair(a: Bag, b: Bag, config: AugmentConfig,
                 rng: np.random.Generator) -> AugmentedBag:
    """Sample lambda and either return the masked B (probability gamma) or the
    mix-up fusion of the pair."""
    if a.id == b.id:
        raise ValueError(f"augmentation requires two distinct bags, got {a.id!r} twice")
    lam = sample_lambda(config.alpha_beta, rng)
    if rng.random() < config.gamma:
        return masked_single_bag(b, lam, config, rng)
    return mixup_bags(a, b, lam, config, rng)
