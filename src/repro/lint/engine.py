"""The lint engine: collect files, run rules, sort the findings.

Entry points:

* :func:`lint_paths` — lint files/directories on disk (what the CLI
  and the self-check test call);
* :func:`lint_sources` — lint an in-memory ``{path: source}`` mapping
  (what the rule fixture tests call).

Every file is parsed once; file rules see one module at a time, project
rules (PROTO001, CFG001) the whole set.  Every finding counts: a run
is :attr:`LintResult.ok` exactly when it found nothing, so a violation
is fixed where it is found.
"""

from __future__ import annotations

import os
import typing as t
from dataclasses import dataclass, field

import repro.lint.rules  # noqa: F401  — registers the built-in rules
from repro.lint.finding import Finding
from repro.lint.registry import RULES, FileRule, ProjectRule
from repro.lint.source import Project, SourceFile

__all__ = ["LintResult", "collect_files", "lint_sources", "lint_paths"]

#: Pseudo-rule id for files the engine cannot parse.
PARSE_RULE = "PARSE"


@dataclass
class LintResult:
    """Outcome of one lint run."""

    #: Every finding, sorted and de-duplicated.
    findings: list[Finding] = field(default_factory=list)
    #: Number of files linted.
    n_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        return f"{self.n_files} files, {len(self.findings)} finding(s)"


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


def lint_sources(
    sources: t.Mapping[str, str],
    only: t.Collection[str] | None = None,
) -> LintResult:
    """Lint an in-memory ``{path: source text}`` mapping."""
    files: dict[str, SourceFile] = {}
    raw: list[Finding] = []
    for path in sorted(sources):
        norm = path.replace(os.sep, "/")
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
    return LintResult(findings=sorted(set(raw)), n_files=len(sources))


def lint_paths(
    paths: t.Sequence[str],
    only: t.Collection[str] | None = None,
) -> LintResult:
    """Lint files/directories on disk."""
    sources: dict[str, str] = {}
    for file_path in collect_files(paths):
        with open(file_path, "r", encoding="utf-8") as fh:
            sources[file_path] = fh.read()
    return lint_sources(sources, only=only)
