"""SIM003 — no float equality on simulated timestamps.

Simulated timestamps are float64 seconds built from epoch arithmetic;
comparing them with ``==``/``!=`` works until a rescaled epoch length
stops being exactly representable.  Ordering comparisons and tolerance
windows are fine; exact equality is not.  (SIM001, the host-clock ban,
lives with the other banned sinks in :mod:`repro.lint.rules.sinks`.)
"""

from __future__ import annotations

import ast
import typing as t

from repro.lint.astutil import terminal_name
from repro.lint.finding import Finding
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

#: Call names whose result is a simulated timestamp.
_TS_CALL_NAMES = frozenset({"now", "min_ts", "max_ts"})
#: Variable/attribute names conventionally holding simulated timestamps.
_TS_NAMES = frozenset(
    {
        "ts",
        "t0",
        "t1",
        "now",
        "epoch_start",
        "epoch_end",
        "cutoff_ts",
        "deadline",
        "timestamp",
        "sim_time",
        "arrival_ts",
        "posted_at",
    }
)


def _is_timestampish(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in _TS_CALL_NAMES
    return terminal_name(node) in _TS_NAMES


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class NoFloatTimestampEquality(FileRule):
    """SIM003: ``==``/``!=`` on simulated timestamps."""

    id = "SIM003"
    summary = (
        "no float equality on simulated timestamps (use ordering or an "
        "explicit tolerance)"
    )

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_none(left) or _is_none(right):
                    continue
                if _is_timestampish(left) or _is_timestampish(right):
                    yield Finding(
                        path=src.path,
                        line=node.lineno,
                        rule=self.id,
                        message=(
                            "float equality on a simulated timestamp — "
                            "timestamps come from epoch arithmetic; compare "
                            "with ordering or an explicit tolerance"
                        ),
                    )
                    break
