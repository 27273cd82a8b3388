"""The lint finding record.

A finding pins one rule violation to a ``path:line`` anchor.  Its
:attr:`Finding.key` — ``"<rule> <path>:<line>"`` — is the compact
identity the rule fixtures compare.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation anchored at ``path:line``."""

    path: str
    line: int
    rule: str
    message: str

    @property
    def key(self) -> str:
        """``"<rule> <path>:<line>"``: what the rule fixtures compare."""
        return f"{self.rule} {self.path}:{self.line}"

    def render(self) -> str:
        """Human-readable one-liner (``path:line: RULE message``)."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_record(self) -> dict[str, object]:
        """Flat JSON-serializable record (``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
