"""Held-out sweep of the reference protocol: one `run_training` per seed and
mode, on the dataset and config that criterion 7 uses, so the sweep cannot
drift from the gate's protocol.

    python3 sweeps/heldout.py --seeds 6 7 8 9 10 11 12 13 14 15 \
        --modes confidence vanilla naive --backbone gated_attention

prints one JSON line per run: seed, mode, backbone, the baseline AUC (after
the first classifier phase), the final AUC and the run's wall-clock seconds.
Seeds 1-5 are the gate's; choose among variants on other seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from coupledmil.orchestrator import run_training  # noqa: E402
from test_acceptance import _reference_config, _reference_dataset  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(6, 16)))
    parser.add_argument("--modes", nargs="+", default=["confidence", "vanilla", "naive"])
    parser.add_argument("--backbone", default="gated_attention")
    args = parser.parse_args(argv)
    for seed in args.seeds:
        dataset = _reference_dataset(seed)
        for mode in args.modes:
            config = dataclasses.replace(_reference_config(seed, mode),
                                         backbone=args.backbone)
            started = time.perf_counter()
            report, _ = run_training(dataset, config)
            seconds = time.perf_counter() - started
            print(json.dumps({
                "seed": seed, "mode": mode, "backbone": config.backbone,
                "baseline_auc": report.evaluations[0]["auc"],
                "final_auc": report.evaluations[-1]["auc"],
                "seconds": round(seconds, 1),
            }), flush=True)


if __name__ == "__main__":
    main()
