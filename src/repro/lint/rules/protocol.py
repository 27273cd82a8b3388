"""PROTO001 — protocol exhaustiveness.

The wire protocol (:mod:`repro.core.protocol`) is a *fixed schedule*:
every message type corresponds to exactly one step of the epoch
structure, and the node loops dispatch on message type via
``comm.recv_expect(src, Type, ...)`` and ``isinstance(msg, Type)``.
That makes the protocol easy to extend and easy to break silently: a
new message nobody dispatches deadlocks the run at the first exchange
(or dies with a runtime :class:`~repro.errors.ProtocolError`), and a
handler naming a removed message keeps a dead code path alive.

This rule cross-checks three sets, all computed statically:

* **message types** — subclasses of ``Message`` in ``core/protocol.py``;
* **dispatch sites** — type names in ``recv_expect``/``isinstance``
  calls in the node-loop modules (master, slave, standby, collector,
  and the ATR/CTR routing nodes).  A name is protocol vocabulary when
  it resolves to a class ``core/protocol.py`` binds — defines or
  imports — whichever module the handler imports it from; other
  foreign types (failure markers such as ``NodeDown``) are left alone;
* **send/construction sites** — ``X.send(dst, Type(...))`` calls and
  plain ``Type(...)`` constructions anywhere in the project.

Findings: a message that is sent but never dispatched, a message never
constructed at all (dead protocol surface), and a dispatch site naming
something that is not a message type.
"""

from __future__ import annotations

import ast
import typing as t

from repro.lint.astutil import ImportTable, terminal_name
from repro.lint.finding import Finding
from repro.lint.registry import ProjectRule, register
from repro.lint.source import Project, SourceFile

#: Where the message vocabulary lives.
PROTOCOL_SUFFIX = "core/protocol.py"
#: The modules whose loops dispatch on message types.
HANDLER_SUFFIXES: tuple[str, ...] = (
    "core/master.py",
    "core/slave.py",
    "core/standby.py",
    "core/collector.py",
    # The ATR/CTR routing nodes (``RoutingMaster``, ``LightSlave``).
    "/framework.py",
)
#: The fully qualified module dispatchers import message types from.
PROTOCOL_MODULE = "repro.core.protocol"

#: The abstract base — not itself a wire message.
_BASE_CLASS = "Message"


def _message_classes(proto: SourceFile) -> dict[str, int]:
    """``{class name: def line}`` of Message subclasses (transitively)."""
    bases: dict[str, list[str]] = {}
    lines: dict[str, int] = {}
    for node in ast.walk(proto.tree):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [
                base.id for base in node.bases if isinstance(base, ast.Name)
            ]
            lines[node.name] = node.lineno

    def derives_from_message(name: str, seen: frozenset[str]) -> bool:
        if name in seen:
            return False
        return any(
            parent == _BASE_CLASS
            or (parent in bases and derives_from_message(parent, seen | {name}))
            for parent in bases.get(name, [])
        )

    return {
        name: lines[name]
        for name in bases
        if name != _BASE_CLASS and derives_from_message(name, frozenset())
    }


def _bound_names(proto: SourceFile) -> set[str]:
    """Fully qualified names *proto* binds by ``from X import Y``."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(proto.tree)
        if isinstance(node, ast.ImportFrom) and node.module and not node.level
        for alias in node.names
    }


def _type_arg_names(node: ast.expr) -> list[tuple[str, int]]:
    """Names in a dispatch-type argument (a name or a tuple of names)."""
    if isinstance(node, ast.Tuple):
        out: list[tuple[str, int]] = []
        for element in node.elts:
            out.extend(_type_arg_names(element))
        return out
    name = terminal_name(node)
    return [(name, node.lineno)] if name is not None else []


@register
class ProtocolExhaustiveness(ProjectRule):
    """PROTO001: every sent message dispatched, no dead protocol surface."""

    id = "PROTO001"
    summary = (
        "every protocol message must be constructed and (if sent) "
        "dispatched by a node loop; no dispatch of unknown messages"
    )

    def check_project(self, project: Project) -> t.Iterator[Finding]:
        proto = project.find(PROTOCOL_SUFFIX)
        if proto is None:
            return  # nothing to cross-check against
        messages = _message_classes(proto)
        if not messages:
            return
        imported = _bound_names(proto)

        dispatched: set[str] = set()
        sent: set[str] = set()
        constructed: set[str] = set()
        unknown: list[Finding] = []

        handlers = project.matching(HANDLER_SUFFIXES)
        for src in handlers:
            imports = ImportTable(src.tree)
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                args: list[tuple[str, int]] = []
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "recv_expect"
                ):
                    for arg in node.args[1:]:
                        args.extend(_type_arg_names(arg))
                elif (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    args.extend(_type_arg_names(node.args[1]))
                for name, line in args:
                    resolved = imports.resolve(ast.Name(id=name, ctx=ast.Load()))
                    from_protocol = resolved is not None and resolved.startswith(
                        PROTOCOL_MODULE + "."
                    )
                    # For protocol imports validate the *original* name
                    # (aliases included); otherwise fall back to the local
                    # spelling.
                    original = (
                        resolved.rsplit(".", 1)[1]
                        if from_protocol and resolved is not None
                        else name
                    )
                    if original in messages:
                        dispatched.add(original)
                    elif from_protocol or resolved in imported:
                        unknown.append(
                            Finding(
                                path=src.path,
                                line=line,
                                rule=self.id,
                                message=(
                                    f"dispatch names `{name}`, which is not "
                                    f"a message type in {PROTOCOL_SUFFIX} — "
                                    "dead or stale handler"
                                ),
                            )
                        )

        for path in sorted(project.files):
            src = project.files[path]
            if src is proto:
                continue
            for node in ast.walk(src.tree):
                if not isinstance(node, ast.Call):
                    continue
                func_name = terminal_name(node.func)
                if func_name in messages:
                    constructed.add(t.cast(str, func_name))
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Call)
                ):
                    payload = terminal_name(node.args[1].func)
                    if payload in messages:
                        sent.add(t.cast(str, payload))

        yield from sorted(unknown)
        for name in sorted(messages):
            if name in sent and name not in dispatched:
                yield Finding(
                    path=proto.path,
                    line=messages[name],
                    rule=self.id,
                    message=(
                        f"message `{name}` is sent but no node loop "
                        "dispatches it (recv_expect/isinstance in "
                        f"{', '.join(HANDLER_SUFFIXES)})"
                    ),
                )
            if name not in constructed:
                yield Finding(
                    path=proto.path,
                    line=messages[name],
                    rule=self.id,
                    message=(
                        f"message `{name}` is never constructed outside "
                        f"{PROTOCOL_SUFFIX} — dead protocol surface"
                    ),
                )
