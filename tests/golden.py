"""Golden results: the reports of 18 short training runs, which
`test_golden.py` reruns and compares with `golden.json`.

Every backbone and fine-tuning mode, with and without `augment`, trains for
two iterations on one 40-bag dataset. A change that declares a change of
results regenerates the file and commits it with the change, so that its
diff shows which values moved:

    PYTHONPATH=src python tests/golden.py

With `--drift` it writes nothing and prints, for each run, the largest
relative deviation of a loss from `golden.json`, then the largest of all
runs: the measure of how close this host comes to the test's loss bound.
"""

from __future__ import annotations

import argparse
import itertools
import json
from pathlib import Path

from coupledmil.bagdata import SyntheticSpec, generate_synthetic
from coupledmil.milnet import BACKBONES
from coupledmil.orchestrator import FINE_TUNE_MODES, TrainConfig, run_training

PATH = Path(__file__).with_name("golden.json")
SPEC = SyntheticSpec(num_bags=40, instances_per_bag=(3, 12), d_raw=4, rho=0.3,
                     delta=1.5, seed=5)
LOSSES = ("classifier_losses", "embedder_losses")
RUNS = {f"{backbone}-{mode}-{'augment' if augment else 'plain'}":
        dict(backbone=backbone, mode=mode, augment=augment, iterations=2,
             classifier_epochs=10, classifier_lr=1e-2, embedder_passes=2,
             embedder_lr=1e-3, batch_size=16, hidden=(8,), embed_dim=6,
             attn_dim=3, seed=3)
        for backbone, mode, augment
        in itertools.product(BACKBONES, FINE_TUNE_MODES, (False, True))}
HEADER = ("tests/golden.py writes this file and tests/test_golden.py checks it. "
          "A change that declares a change of results regenerates it "
          "(PYTHONPATH=src python tests/golden.py), so that its diff shows "
          "which values moved; no other change edits it.")


def report(name: str) -> dict:
    """Run `name`'s configuration and return its report as report.json
    holds it."""
    report, _ = run_training(generate_synthetic(SPEC), TrainConfig(**RUNS[name]))
    return json.loads(report.to_json())


def relative_deviation(got: float, want: float) -> float:
    return 0.0 if got == want else abs(got - want) / abs(want)


def drift() -> None:
    """Print each run's largest relative loss deviation from `golden.json`
    and the largest over all runs."""
    expected = json.loads(PATH.read_text())["runs"]
    largest = 0.0
    for name in sorted(RUNS):
        got, want = report(name), expected[name]
        run_max = max(relative_deviation(g, w) for key in LOSSES
                      for got_phase, want_phase in zip(got[key], want[key], strict=True)
                      for g, w in zip(got_phase, want_phase, strict=True))
        largest = max(largest, run_max)
        print(f"{name}: {run_max:.3g}")
    print(f"largest relative loss deviation: {largest:.3g}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Write tests/golden.json.")
    parser.add_argument("--drift", action="store_true",
                        help="write nothing; print each run's largest relative "
                             "loss deviation from golden.json, and the largest of all")
    if parser.parse_args().drift:
        drift()
        return
    golden = {"header": HEADER, "runs": {name: report(name) for name in RUNS}}
    PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
