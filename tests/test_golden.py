"""The golden tripwire: 18 short training runs, every backbone and mode with
and without `augment`, rerun against `golden.json` (written by `golden.py`).

Everything but the losses must match exactly: AUC, F1 and accuracy are
ratios of counts rounded once. The losses must match to a relative 1e-13.
At 10 classifier epochs, flipping the last bit of every initial parameter
moved them by at most 3.8e-15 relative, and flipping it again after every
Adam step by at most 4.3e-14, so the bound leaves 26 times the first drift
and 2.3 times the second, and fails on anything larger.
A change that declares a change of results regenerates the file."""

from __future__ import annotations

import json

import pytest

import golden

LOSS_RTOL = 1e-13
LOSSES = ("classifier_losses", "embedder_losses")
EXPECTED = json.loads(golden.PATH.read_text())["runs"]


def test_covers_every_configuration():
    assert sorted(EXPECTED) == sorted(golden.RUNS)
    assert len(EXPECTED) == 18


@pytest.mark.parametrize("name", sorted(golden.RUNS))
def test_run_matches_golden(name):
    expected, report = EXPECTED[name], golden.report(name)
    assert sorted(report) == sorted(expected)
    for key in report:
        if key not in LOSSES:
            assert report[key] == expected[key], key
    for key in LOSSES:
        assert list(map(len, report[key])) == list(map(len, expected[key])), key
        for got, want in zip(report[key], expected[key]):
            assert got == pytest.approx(want, rel=LOSS_RTOL, abs=0.0), key
