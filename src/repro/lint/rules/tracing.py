"""OBS001 — observability hot paths must guard on the null object.

The observability layer's zero-overhead contract (PR 1) is that an
instrumented hot path pays one attribute load and branch when tracing
is off::

    if tracer.enabled:
        tracer.emit(SplitEvent(t=now, node=self.node_id, ...))

An unguarded ``tracer.emit(Event(...))`` still *constructs* the event —
allocation, field packing, tuple copies — on every call, defeating the
contract precisely on the paths hot enough to have been instrumented.

The rule accepts two guard shapes:

* the emit is lexically inside ``if <recv>.enabled:`` (possibly as one
  conjunct of an ``and``), where ``<recv>`` is the same dotted
  receiver as the emit call's;
* the enclosing function starts with an early bail-out
  ``if not <recv>.enabled: return`` (or ``raise``/``continue``).

The :mod:`repro.obs` package itself is exempt — the tracer's own
``emit`` is where the enabled check lives.
"""

from __future__ import annotations

import ast
import typing as t

from repro.lint.astutil import dotted, terminal_name
from repro.lint.finding import Finding
from repro.lint.registry import FileRule, register
from repro.lint.source import SourceFile

#: The tracer implementation is allowed to call emit unguarded.
TRACING_EXEMPT_FRAGMENTS: tuple[str, ...] = ("repro/obs/",)

_FuncNode = t.Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _looks_like_tracer(receiver: ast.expr) -> bool:
    name = terminal_name(receiver)
    return name is not None and name.endswith("tracer")


def _guarded_receivers(test: ast.expr) -> set[str]:
    """Dotted receivers asserted enabled by an if-test.

    Handles ``X.enabled`` and any ``and``-conjunction containing it.
    """
    out: set[str] = set()
    stack: list[ast.expr] = [test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            stack.extend(node.values)
        elif isinstance(node, ast.Attribute) and node.attr == "enabled":
            receiver = dotted(node.value)
            if receiver is not None:
                out.add(receiver)
    return out


def _early_bailout_receivers(func: _FuncNode) -> set[str]:
    """Receivers protected by ``if not X.enabled: return`` in *func*."""
    out: set[str] = set()
    for stmt in func.body:
        if not isinstance(stmt, ast.If):
            continue
        test = stmt.test
        if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
            continue
        if not any(
            isinstance(s, (ast.Return, ast.Raise, ast.Continue)) for s in stmt.body
        ):
            continue
        out |= _guarded_receivers(test.operand)
    return out


@register
class GuardedTraceEmit(FileRule):
    """OBS001: ``tracer.emit(...)`` without the ``tracer.enabled`` guard."""

    id = "OBS001"
    summary = (
        "tracer.emit(Event(...)) must be guarded by `if tracer.enabled:` "
        "(event construction is the cost, not the emit)"
    )

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        if any(fragment in src.path for fragment in TRACING_EXEMPT_FRAGMENTS):
            return
        yield from self._walk(src, src.tree, frozenset())

    def _walk(
        self, src: SourceFile, node: ast.AST, guards: frozenset[str]
    ) -> t.Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            yield from self._visit(src, child, guards)

    def _visit(
        self, src: SourceFile, node: ast.AST, guards: frozenset[str]
    ) -> t.Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._walk(
                src, node, guards | _early_bailout_receivers(node)
            )
            return
        if isinstance(node, ast.If):
            inside = guards | _guarded_receivers(node.test)
            for stmt in node.body:
                yield from self._visit(src, stmt, inside)
            for stmt in node.orelse:
                yield from self._visit(src, stmt, guards)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and _looks_like_tracer(node.func.value)
        ):
            receiver = dotted(node.func.value)
            if receiver is not None and receiver not in guards:
                yield Finding(
                    path=src.path,
                    line=node.lineno,
                    rule=self.id,
                    message=(
                        f"`{receiver}.emit(...)` constructs its event "
                        f"unconditionally — guard with `if {receiver}."
                        "enabled:` so disabled runs pay only the branch"
                    ),
                )
            # Still visit arguments: nested emits are implausible but cheap.
        yield from self._walk(src, node, guards)

