"""Codebase-specific static analysis (``swjoin lint``).

The reproduction's correctness rests on invariants Python cannot
express in types: deterministic simulated time, registry-routed
randomness, no blocking on the host, null-tracer-guarded
instrumentation, an exhaustively dispatched wire protocol, and config
knobs that actually steer the system.  This package checks them
statically:

* a visitor **engine** over per-file ASTs plus a cross-file project
  view (:mod:`repro.lint.engine`, :mod:`repro.lint.source`);
* a **rule registry** with seven built-in rules
  (:mod:`repro.lint.rules`) — SIM001/SIM002/PERF001 are rows of one
  per-file banned-sink rule that flags every load *and import* of the
  wall clock, unseeded randomness or blocking I/O outside the files
  entitled to it, so a sink wrapped in a helper or re-exported is
  flagged where it enters the project;
* line-scoped ``# lint: disable=<rule>`` **pragmas** (honored by file
  and project rules alike) and a shrink-only **baseline** file for
  triaged debt (:mod:`repro.lint.baseline`);
* the ``swjoin lint`` CLI (:mod:`repro.lint.cli`) and this importable
  API for tests::

      from repro.lint import lint_paths
      assert lint_paths(["src/repro"]).ok
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.engine import LintResult, collect_files, lint_paths, lint_sources
from repro.lint.finding import Finding
from repro.lint.registry import RULES, FileRule, ProjectRule, Rule, register

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "Rule",
    "FileRule",
    "ProjectRule",
    "RULES",
    "register",
    "collect_files",
    "lint_paths",
    "lint_sources",
]
