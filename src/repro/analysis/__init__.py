"""Experiment harness: sweeps, tables, and the per-figure experiments.

``repro.analysis.experiments`` contains one entry per table/figure of
the paper's evaluation section (and the extra ablations listed in
DESIGN.md).  Each runs into an :class:`~repro.analysis.series.Experiment`
whose rows print as the same series the paper plots.
"""

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.series import Experiment
from repro.analysis.tables import format_table

__all__ = ["Experiment", "format_table", "EXPERIMENTS", "run_experiment"]
