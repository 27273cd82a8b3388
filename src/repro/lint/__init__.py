"""Codebase-specific static analysis (``swjoin lint``).

The reproduction's correctness rests on invariants Python cannot
express in types: deterministic simulated time, registry-routed
randomness, null-tracer-guarded instrumentation, an exhaustively
dispatched wire protocol, and config knobs that actually steer the
system.  This package checks them statically:

* a visitor **engine** over per-file ASTs plus a cross-file project
  view (:mod:`repro.lint.engine`, :mod:`repro.lint.source`);
* a whole-project **symbol table and call graph**
  (:mod:`repro.lint.symbols`, :mod:`repro.lint.callgraph`) feeding a
  cycle-safe **taint dataflow** fixpoint (:mod:`repro.lint.dataflow`)
  — the interprocedural rules SIM004/SIM005/PERF001 flag call *chains*
  that reach the wall clock, unseeded randomness, or blocking I/O;
* a **rule registry** with nine built-in rules
  (:mod:`repro.lint.rules`);
* line-scoped ``# lint: disable=<rule>`` **pragmas** (honored by file
  and project rules alike) and a shrink-only **baseline** file for
  triaged debt (:mod:`repro.lint.baseline`);
* a content-hash **result cache** (:mod:`repro.lint.cache`) keeping
  the interprocedural pass instant in pre-commit;
* the ``swjoin lint`` CLI (:mod:`repro.lint.cli`) — including
  ``--explain RULE file:line``, which prints a finding's witness call
  chain — and this importable API for tests::

      from repro.lint import lint_paths
      assert lint_paths(["src/repro"]).ok
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.cache import ResultCache
from repro.lint.engine import LintResult, collect_files, lint_paths, lint_sources
from repro.lint.finding import Finding
from repro.lint.registry import RULES, FileRule, ProjectRule, Rule, register

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintResult",
    "ResultCache",
    "Rule",
    "FileRule",
    "ProjectRule",
    "RULES",
    "register",
    "collect_files",
    "lint_paths",
    "lint_sources",
]
