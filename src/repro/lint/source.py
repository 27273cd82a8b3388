"""Parsed source files, suppression pragmas, and the project view.

A :class:`SourceFile` is one parsed module: its text, its AST, and the
``# lint: disable=<rule>`` pragmas found in its comments.  A
:class:`Project` is the whole file set handed to a lint run — the unit
cross-module rules (protocol exhaustiveness, config-field liveness)
operate on.

Pragma syntax
-------------

A comment of the form ::

    x = time.time()  # lint: disable=SIM001
    y = a == b       # lint: disable=SIM003,SIM001

suppresses the named rules for findings anchored **on that line** (for
a multi-line statement, the line where the statement starts).  Pragmas
are deliberately line-scoped: a file-wide opt-out would defeat the
invariants the rules encode — use the baseline for triaged debt.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass

__all__ = ["SourceFile", "Project", "parse_pragmas"]

_PRAGMA_PREFIX = "lint:"
_DISABLE = "disable="


def parse_pragmas(text: str) -> dict[int, frozenset[str]]:
    """Map line number to the rule ids disabled on that line."""
    disabled: dict[int, frozenset[str]] = {}
    reader = io.StringIO(text).readline
    for tok in tokenize.generate_tokens(reader):
        if tok.type != tokenize.COMMENT:
            continue
        comment = tok.string.lstrip("#").strip()
        if not comment.startswith(_PRAGMA_PREFIX):
            continue
        directive = comment[len(_PRAGMA_PREFIX) :].strip()
        if not directive.startswith(_DISABLE):
            continue
        rules = frozenset(
            part.strip()
            for part in directive[len(_DISABLE) :].split(",")
            if part.strip()
        )
        if rules:
            line = tok.start[0]
            disabled[line] = disabled.get(line, frozenset()) | rules
    return disabled


@dataclass
class SourceFile:
    """One parsed module: path, text, AST, and suppression pragmas."""

    path: str
    text: str
    tree: ast.Module
    disabled: dict[int, frozenset[str]]

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        """Parse *text*; raises :class:`SyntaxError` on malformed code."""
        tree = ast.parse(text, filename=path)
        return cls(path=path, text=text, tree=tree, disabled=parse_pragmas(text))

    def is_suppressed(self, rule: str, line: int) -> bool:
        return rule in self.disabled.get(line, frozenset())


@dataclass
class Project:
    """The file set of one lint run, keyed by normalized posix path."""

    files: dict[str, SourceFile]

    def find(self, suffix: str) -> SourceFile | None:
        """The first file (by sorted path) whose path ends with *suffix*."""
        for path in sorted(self.files):
            if path.endswith(suffix):
                return self.files[path]
        return None

    def matching(self, suffixes: tuple[str, ...]) -> list[SourceFile]:
        """All files whose path ends with any of *suffixes* (sorted)."""
        return [
            self.files[path]
            for path in sorted(self.files)
            if path.endswith(suffixes)
        ]
