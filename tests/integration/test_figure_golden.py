"""Golden rows of the paper's experiments.

The simulated backend is deterministic per seed, so every experiment in
:data:`repro.analysis.experiments.EXPERIMENTS` produces the same quick-grid
rows and notes on every run.  ``figure_golden.json`` records them at the
scale each experiment's paper-shape assertion uses (``SCALES``): a change
that moves a figure, on purpose or not, fails here.  Counts, booleans and
strings compare exactly, floats to 1e-9 relative, so a numpy version bump
that reorders a floating-point sum is not a false alarm.

Tier-1 checks the two cheapest experiments; ``benchmarks/bench_figures.py``
checks all of them against the same file, from the same results its shape
assertions read.

A change that is *meant* to move a row says so where it is recorded and
regenerates the file::

    PYTHONPATH=src python tests/integration/test_figure_golden.py --write
"""

from __future__ import annotations

import json
import math
import sys
import typing as t
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.series import Experiment

GOLDEN = Path(__file__).with_name("figure_golden.json")
REL_TOL = 1e-9

#: The scale each experiment is pinned at.
SCALES: dict[str, float] = {name: 0.02 for name in EXPERIMENTS} | {
    name: 0.05
    for name in (
        "fig07",
        "fig08",
        "fig11",
        "ablation_beta",
        "ablation_memory",
        "baselines_skew",
    )
}

#: About two seconds each at σ = 0.02 on a 2-core host.
CHEAPEST = ("fig09", "subgroup_buffer")


def observe(name: str, exp: Experiment) -> dict[str, t.Any]:
    """An experiment's pinned outcome, as plain JSON values."""
    out = {"scale": SCALES[name], "rows": exp.rows, "notes": exp.notes}
    return t.cast(dict[str, t.Any], json.loads(json.dumps(out)))


def _assert_close(got: t.Any, want: t.Any, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), (where, got, want)
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            where, got, want
        )
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def assert_golden(name: str, exp: Experiment) -> None:
    """*exp*, run at ``SCALES[name]`` with the quick grid, is its golden."""
    golden = json.loads(GOLDEN.read_text())
    _assert_close(observe(name, exp), golden[name], name)


def run(name: str) -> Experiment:
    return run_experiment(name, scale=SCALES[name], quick=True)


@pytest.mark.parametrize("name", CHEAPEST)
def test_rows_equal_golden(name: str) -> None:
    assert_golden(name, run(name))


def test_golden_covers_every_experiment() -> None:
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(EXPERIMENTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    GOLDEN.write_text(
        json.dumps({name: observe(name, run(name)) for name in sorted(EXPERIMENTS)},
                   indent=1)
        + "\n"
    )
