"""The lint engine: collect files, run rules, filter findings.

Entry points:

* :func:`lint_paths` — lint files/directories on disk (what the CLI
  and the self-check test call);
* :func:`lint_sources` — lint an in-memory ``{path: source}`` mapping
  (what the rule fixture tests call).

Every file is parsed once; file rules see one module at a time, project
rules (PROTO001, CFG001) the whole set.  Findings flow through two
filters: line-scoped ``# lint: disable=`` pragmas (dropped, counted),
then the baseline (split into *fresh* and *baselined*).  A run is
:attr:`LintResult.ok` when nothing fresh was found **and** no baseline
entry went stale — the baseline may only shrink.
"""

from __future__ import annotations

import os
import typing as t
from dataclasses import dataclass, field

import repro.lint.rules  # noqa: F401  — registers the built-in rules
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.finding import Finding
from repro.lint.registry import RULES, FileRule, ProjectRule
from repro.lint.source import Project, SourceFile

__all__ = ["LintResult", "collect_files", "lint_sources", "lint_paths"]

#: Pseudo-rule id for files the engine cannot parse.
PARSE_RULE = "PARSE"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    #: All findings that survived pragma suppression, sorted.
    findings: list[Finding] = field(default_factory=list)
    #: Findings not covered by the baseline (these fail the run).
    fresh: list[Finding] = field(default_factory=list)
    #: Findings accepted by the baseline.
    baselined: list[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing (these also fail the run).
    stale_baseline: list[BaselineEntry] = field(default_factory=list)
    #: Count of findings dropped by ``# lint: disable=`` pragmas.
    suppressed: int = 0
    #: Number of files linted.
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.fresh and not self.stale_baseline

    def summary(self) -> str:
        parts = [
            f"{self.n_files} files",
            f"{len(self.fresh)} new finding(s)",
        ]
        if self.baselined:
            parts.append(f"{len(self.baselined)} baselined")
        if self.stale_baseline:
            parts.append(f"{len(self.stale_baseline)} stale baseline entr(y/ies)")
        if self.suppressed:
            parts.append(f"{self.suppressed} pragma-suppressed")
        return ", ".join(parts)


def collect_files(paths: t.Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: dict[str, None] = {}
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for name in sorted(names):
                    if name.endswith(".py"):
                        out[os.path.join(root, name)] = None
        else:
            out[path] = None
    return sorted(out)


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/")


def _compute_findings(
    sources: t.Mapping[str, str],
    only: t.Collection[str] | None,
) -> tuple[list[Finding], int]:
    """Run every selected rule; returns post-pragma findings + suppressed.

    Pragma suppression is applied here, uniformly: a finding from a
    *project* rule (PROTO001, CFG001) honors a line-scoped
    ``# lint: disable=`` exactly like a file-rule finding — the filter
    keys on the finding's anchor, not on the rule flavor.
    """
    files: dict[str, SourceFile] = {}
    raw: list[Finding] = []
    for path in sorted(sources):
        norm = _normalize(path)
        try:
            files[norm] = SourceFile.parse(norm, sources[path])
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path=norm,
                    line=exc.lineno or 1,
                    rule=PARSE_RULE,
                    message=f"cannot parse: {exc.msg}",
                )
            )
    project = Project(files)

    for rule_id in sorted(RULES):
        if only is not None and rule_id not in only:
            continue
        rule = RULES[rule_id]
        if isinstance(rule, FileRule):
            for src in project.files.values():
                raw.extend(rule.check_file(src))
        elif isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))

    findings: list[Finding] = []
    suppressed = 0
    for finding in sorted(set(raw)):
        src = project.files.get(finding.path)
        if src is not None and src.is_suppressed(finding.rule, finding.line):
            suppressed += 1
            continue
        findings.append(finding)
    return findings, suppressed


def lint_sources(
    sources: t.Mapping[str, str],
    baseline: Baseline | None = None,
    only: t.Collection[str] | None = None,
) -> LintResult:
    """Lint an in-memory ``{path: source text}`` mapping."""
    result = LintResult(n_files=len(sources))
    findings, result.suppressed = _compute_findings(sources, only)
    for finding in findings:
        result.findings.append(finding)
        if baseline is not None and baseline.covers(finding):
            result.baselined.append(finding)
        else:
            result.fresh.append(finding)

    if baseline is not None:
        result.stale_baseline = baseline.stale(result.findings)
    return result


def lint_paths(
    paths: t.Sequence[str],
    baseline: Baseline | None = None,
    only: t.Collection[str] | None = None,
) -> LintResult:
    """Lint files/directories on disk."""
    sources: dict[str, str] = {}
    for file_path in collect_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            sources[file_path] = fh.read()
    return lint_sources(sources, baseline=baseline, only=only)
