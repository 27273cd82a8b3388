"""Banned sinks: SIM001 (host clock), SIM002 (unseeded randomness) and
PERF001 (blocking I/O) — one per-file rule, three rows.

Simulated components take time from their runtime (``rt.now()``),
draw randomness from a named :class:`repro.simul.rng.RngRegistry`
substream, and never block on the host: one ``time.time()``,
``np.random.default_rng()`` or ``open()`` in ``simul``/``core`` makes a
run irreproducible or stalls the epoch-synchronized schedule.  Outside
a row's allowlist, the row flags

* a load that resolves to a sink through the module's imports
  (``_t.perf_counter()`` after ``import time as _t``; passing
  ``time.perf_counter`` as a callback is as bad as calling it);
* an import that binds a sink or a sink module (``from time import
  monotonic``, ``import socket``, ``from numpy.random import *``);
* for PERF001, the builtins ``open``/``input`` unless the module
  rebinds the name (``gate.open()`` is an attribute, not the builtin).

Per-file is enough: every sink enters the project through some file's
import or load, and that line is flagged unless the file is entitled to
the sink.  A helper wrapping ``time.time()`` is flagged at the helper,
a re-export at the re-export.  The only chains left unflagged run
*into* an allowlisted layer, which is what the allowlist entitles.
"""

from __future__ import annotations

import ast
import typing as t
from dataclasses import dataclass, field

from repro.lint.astutil import ImportTable
from repro.lint.finding import Finding
from repro.lint.registry import FileRule, add
from repro.lint.source import SourceFile

__all__ = ["BannedSink", "BANNED_SINKS", "WALL_CLOCK_NAMES"]

#: Host-clock reads (and wall-clock sleeps).
WALL_CLOCK_NAMES = frozenset(
    "time.time time.time_ns time.monotonic time.monotonic_ns "
    "time.perf_counter time.perf_counter_ns time.process_time "
    "time.process_time_ns time.sleep datetime.datetime.now "
    "datetime.datetime.today datetime.datetime.utcnow datetime.date.today".split()
)


def _under(full: str, roots: t.Iterable[str]) -> bool:
    """Is *full* one of *roots* or a dotted name inside one of them?"""
    return any(full == root or full.startswith(root + ".") for root in roots)


@dataclass(kw_only=True)
class BannedSink(FileRule):
    """One row: a rule id, its sinks, and the files entitled to them."""

    id: str
    #: Summary head; ``__post_init__`` appends the allowlist.
    ban: str
    #: What a sink reaches, for messages ("the wall clock").
    reaches: str
    remedy: str
    #: Path suffixes, or directories when the entry ends with ``/``.
    allowed: tuple[str, ...]
    names: frozenset[str] = frozenset()
    #: Banned modules with everything in them, except *exempt* (types,
    #: not module state).
    modules: tuple[str, ...] = ()
    exempt: tuple[str, ...] = ()
    #: Builtins banned unless the module rebinds the name.
    builtins: frozenset[str] = frozenset()
    summary: str = field(init=False)

    def __post_init__(self) -> None:
        self.summary = f"{self.ban}; allowed only in {', '.join(self.allowed)}"

    def allows(self, path: str) -> bool:
        return any(
            entry in path if entry.endswith("/") else path.endswith(entry)
            for entry in self.allowed
        )

    def is_sink(self, full: str) -> bool:
        if full.endswith(".*"):  # a star import binds every sink in it
            prefix = full[:-1]
            return _under(full, self.modules) or any(
                name.startswith(prefix) for name in self.names
            )
        return full in self.names or (
            _under(full, self.modules) and not _under(full, self.exempt)
        )

    def check_file(self, src: SourceFile) -> t.Iterator[Finding]:
        if self.allows(src.path):
            return
        imports = ImportTable(src.tree)
        nodes = list(ast.walk(src.tree))
        # Only maximal Name/Attribute chains: `np.random` inside
        # `np.random.Generator` must not be judged on its own.
        inner = {id(n.value) for n in nodes if isinstance(n, ast.Attribute)}
        rebound: set[str] = _bound_names(nodes) if self.builtins else set()
        hits: dict[int, str] = {}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for full in _imported(node):
                    if self.is_sink(full):
                        hits.setdefault(node.lineno, f"import of `{full}`")
                continue
            if (
                not isinstance(node, (ast.Attribute, ast.Name))
                or not isinstance(node.ctx, ast.Load)
                or id(node) in inner
            ):
                continue
            resolved = imports.resolve(node)
            if resolved is not None and self.is_sink(resolved):
                hits.setdefault(node.lineno, f"`{resolved}`")
            elif isinstance(node, ast.Name) and node.id in self.builtins:
                if node.id not in rebound:
                    hits.setdefault(node.lineno, f"builtin `{node.id}`")
        for line, hit in sorted(hits.items()):
            yield Finding(
                path=src.path,
                line=line,
                rule=self.id,
                message=f"{hit} reaches {self.reaches} — {self.remedy}",
            )


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Dotted names an import binds; relative imports bind no sink."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level or node.module is None:
        return []
    return [f"{node.module}.{alias.name}" for alias in node.names]


def _bound_names(nodes: list[ast.AST]) -> set[str]:
    """Every name a module binds anywhere (scope-insensitive)."""
    bound: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".", 1)[0])
    return bound


BANNED_SINKS: tuple[BannedSink, ...] = (
    BannedSink(
        id="SIM001",
        ban=(
            "no host-clock reads or imports (time.time/monotonic/"
            "perf_counter/sleep, datetime.now)"
        ),
        reaches="the wall clock",
        remedy="simulated components must take time from the runtime (rt.now())",
        names=WALL_CLOCK_NAMES,
        # The wall-clocked runtime, the process launcher and transports,
        # the real-socket connect path (handshake timeouts, retry
        # backoff), the admin server's real uptime, and the CLI's
        # elapsed-time reporting about a run, not inside it.
        allowed=(
            "repro/runtime/wall.py",
            "repro/runtime/process.py",
            "repro/net/proc_transport.py",
            "repro/net/tcp_transport.py",
            "repro/obs/admin.py",
            "repro/cli.py",
        ),
    ),
    BannedSink(
        id="SIM002",
        ban="no stdlib random, no numpy.random module state",
        reaches="unseeded randomness",
        remedy="draw from a named RngRegistry substream instead",
        modules=("random", "numpy.random"),
        # Accepting a Generator as a parameter or annotation is how
        # registry streams travel.
        exempt=("numpy.random.Generator", "numpy.random.BitGenerator"),
        # The one module allowed to construct generators.
        allowed=("repro/simul/rng.py",),
    ),
    BannedSink(
        id="PERF001",
        ban="no blocking I/O (socket/select/subprocess/http, sleep, file I/O)",
        reaches="blocking I/O",
        remedy=(
            "the epoch-synchronized schedule must never block on the host "
            "(move the I/O behind the runtime/transport layer)"
        ),
        names=frozenset(
            "time.sleep io.open os.open os.read os.write os.fsync os.fdopen "
            "os.popen os.system".split()
        ),
        modules=("socket", "select", "selectors", "subprocess", "http", "urllib"),
        builtins=frozenset({"open", "input"}),
        # Layers that exist to block: wall-clock backends, real
        # transports, observability exporters/admin, analysis plotting,
        # the lint engine itself (it reads source trees) and the CLI.
        allowed=(
            "repro/runtime/",
            "repro/net/",
            "repro/obs/",
            "repro/analysis/",
            "repro/lint/",
            "repro/cli.py",
        ),
    ),
)

for _row in BANNED_SINKS:
    add(_row)
