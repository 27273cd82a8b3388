"""Parsed source files and the project view.

A :class:`SourceFile` is one parsed module: its path and its AST.  A
:class:`Project` is the whole file set handed to a lint run — the unit
cross-module rules (protocol exhaustiveness, config-field liveness)
operate on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["SourceFile", "Project"]


@dataclass
class SourceFile:
    """One parsed module: path and AST."""

    path: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: str, text: str) -> "SourceFile":
        """Parse *text*; raises :class:`SyntaxError` on malformed code."""
        return cls(path=path, tree=ast.parse(text, filename=path))


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
