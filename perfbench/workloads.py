"""Workload definitions: the generator spec, the training configurations and
the reason each workload exists.

Every workload derives its inputs from the run seed alone: the dataset
generator uses `seed` (the inference evaluation set uses `seed + 1`) and
every `TrainConfig` uses `seed` as its run seed. The inference checkpoint
comes from a desk-config run on the reference dataset.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

# The reference synthetic setup of the README (criterion 7's dataset shape).
REFERENCE_SPEC = {
    "num_bags": 300, "instances_per_bag": 50, "d_raw": 16,
    "rho": 0.1, "delta": 1.6, "noise": 1.0, "positive_fraction": 0.5,
}

# Large variable-size bags for forward-only use through the CLI. The bag
# sizes are drawn from the seed, so the first bags that hold
# INFERENCE_INSTANCES instances are kept (about 390 of the 480 generated):
# every seed then gives the same work and memory, and one eval plus export
# call takes about 2.5 s, so that a run holds several operations.
INFERENCE_INSTANCES = 80_000
INFERENCE_SPEC = {
    "num_bags": 480, "instances_per_bag": [10, 400], "d_raw": 16,
    "rho": 0.1, "delta": 1.6, "noise": 1.0, "positive_fraction": 0.5,
}

# The desk-default `coupledmil train` configuration, spelled out.
DESK_CONFIG = {
    "backbone": "gated_attention", "mode": "confidence",
    "classifier_epochs": 50, "embedder_passes": 3, "iterations": 1,
    "augment": False,
}

# Embedder-phase heavy. 10 passes instead of the 20 first sized keep both
# modes near 3 s per operation; the embedder side still dominates.
FINETUNE_CONFIG = {
    **DESK_CONFIG, "classifier_epochs": 2, "embedder_passes": 10,
    "iterations": 2, "noise_scale": 0.3,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "train" or "inference"
    spec: dict             # SyntheticSpec fields of the workload's dataset
    configs: dict          # label -> TrainConfig fields; one run per label
    why: str
    instances: int | None = None   # keep the first bags holding this many

    def describe(self) -> dict:
        return {"kind": self.kind, "spec": self.spec, "instances": self.instances,
                "configs": self.configs, "why": self.why}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk", "train", REFERENCE_SPEC, {"confidence": DESK_CONFIG},
            "the desk-default train run users make; per-bag classifier steps "
            "(Adam, gated attention) dominate, augment idles and distill is "
            "under 3%",
        ),
        # 10 epochs: one operation at 50 would take 12 s, too few per run
        Workload(
            "augmented", "train", REFERENCE_SPEC,
            {"confidence": {**DESK_CONFIG, "classifier_epochs": 10, "augment": True,
                            "augment_ratio": 1.0, "augment_n": 4}},
            "desk with pseudo-bag mix-up at 10 epochs: doubles classifier "
            "steps; augment_pair and features_matrix stacking are a fifth of "
            "the run",
        ),
        Workload(
            "finetune", "train", REFERENCE_SPEC,
            {"confidence": FINETUNE_CONFIG,
             "naive": {**FINETUNE_CONFIG, "mode": "naive"}},
            "embedder-phase heavy (10 passes, 2 iterations, confidence and "
            "naive): distill and embedder fwd/bwd dominate, the classifier "
            "phase is a quarter",
        ),
        Workload(
            "inference", "inference", INFERENCE_SPEC, {"checkpoint": DESK_CONFIG},
            "forward-only eval and export-attention CLI calls on 80k instances "
            "in bags of 10 to 400: dataset loading, scalar confidence loop and "
            "attention at large K; no Adam",
            INFERENCE_INSTANCES,
        ),
    )
}


def synthetic(fields: dict, seed: int):
    """The dataset `generate_synthetic` makes from a spec above."""
    from coupledmil import bagdata
    k = fields["instances_per_bag"]
    return bagdata.generate_synthetic(bagdata.SyntheticSpec(
        **{**fields, "instances_per_bag": k if isinstance(k, int) else tuple(k)},
        seed=seed))


def first_bags(dataset, instances: int):
    """The dataset cut to its first bags that hold `instances` instances."""
    total = 0
    for count, bag in enumerate(dataset.bags, 1):
        total += len(bag)
        if total >= instances:
            return dataclasses.replace(dataset, bags=dataset.bags[:count])
    raise ValueError(f"{len(dataset.bags)} bags hold only {total} instances")


def write_dataset(fields: dict, seed: int, path, instances=None) -> float:
    """Generate a dataset, cut it to `instances` if given, and write it with
    `save_dataset`; returns the seconds the save took."""
    from coupledmil import bagdata
    dataset = synthetic(fields, seed)
    if instances is not None:
        dataset = first_bags(dataset, instances)
    start = time.perf_counter()
    bagdata.save_dataset(dataset, path)
    return time.perf_counter() - start
