"""Rule interfaces and the global rule registry.

Two rule flavours exist:

* :class:`FileRule` — inspects one parsed module at a time (purity
  rules: banned sinks, float equality, trace guards);
* :class:`ProjectRule` — sees the whole file set (cross-module
  invariants: protocol exhaustiveness, config-field liveness).

Rules self-register via the :func:`register` decorator, or as
instances via :func:`add` when one class serves several rule ids;
importing :mod:`repro.lint.rules` populates :data:`RULES` with the
built-in set.
"""

from __future__ import annotations

import typing as t

from repro.lint.finding import Finding
from repro.lint.source import Project, SourceFile

__all__ = ["Rule", "FileRule", "ProjectRule", "RULES", "add", "register"]


class Rule:
    """Base class: a rule has a stable id and a one-line summary."""

    id: str = ""
    summary: str = ""


class FileRule(Rule):
    """A rule that inspects one parsed file at a time."""

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover


class ProjectRule(Rule):
    """A rule that needs the whole file set (cross-module invariants)."""

    def check_project(self, project: Project) -> t.Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover


#: Registered rules, keyed by rule id.
RULES: dict[str, Rule] = {}

_R = t.TypeVar("_R", bound=type[Rule])


def add(rule: Rule) -> None:
    """Register one rule instance by its id."""
    if not rule.id:
        raise ValueError(f"rule {type(rule).__name__} has no id")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule


def register(cls: _R) -> _R:
    """Class decorator: instantiate and register a rule by its id."""
    add(cls())
    return cls
