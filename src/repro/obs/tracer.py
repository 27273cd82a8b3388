"""The structured event tracer.

A :class:`Tracer` fans trace events out to its exporters.  The design
goal is *near-zero overhead when disabled*: the shared
:data:`NULL_TRACER` has ``enabled = False`` and every instrumentation
site guards event **construction** (not just emission) behind it::

    if tracer.enabled:
        tracer.emit(SplitEvent(t=now, node=self.node_id, ...))

so a run without observability pays one attribute load and branch per
hook, nothing else.

Each emitted record is stamped with a per-tracer sequence number
(``seq``): on the distributed backends every node owns its tracer, so
``(t, node, seq)`` is a total order over the merged cluster trace even
when wall-clock timestamps collide.  Every emitter runs on its OS
process's one kernel loop, so ``emit`` needs no lock.
"""

from __future__ import annotations

import typing as t

from repro.obs.events import TraceEvent
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    Exporter,
    JsonlExporter,
    MemoryExporter,
)

__all__ = ["Tracer", "NULL_TRACER", "build_tracer"]


class Tracer:
    """Fans events out to exporters; disabled when it has none."""

    __slots__ = ("enabled", "exporters", "n_events")

    def __init__(self, exporters: t.Sequence[Exporter] = ()) -> None:
        self.exporters: tuple[Exporter, ...] = tuple(exporters)
        self.enabled = bool(self.exporters)
        self.n_events = 0

    def emit(self, event: TraceEvent) -> None:
        if not self.enabled:
            return
        record = event.to_record()
        record["seq"] = self.n_events
        self.n_events += 1
        for exporter in self.exporters:
            exporter.export(record)

    def memory_records(self) -> list[dict[str, t.Any]] | None:
        """The in-memory trace, if a :class:`MemoryExporter` is wired."""
        for exporter in self.exporters:
            if isinstance(exporter, MemoryExporter):
                return exporter.records
        return None

    def close(self) -> None:
        for exporter in self.exporters:
            exporter.close()


#: Shared disabled tracer; safe default for every instrumented component.
NULL_TRACER = Tracer()


def build_tracer(obs: t.Any, meta: dict[str, t.Any] | None = None) -> Tracer:
    """Build a tracer from an :class:`~repro.config.ObservabilityConfig`.

    ``obs`` is duck-typed (``trace_path`` / ``trace_memory`` /
    ``console_summary`` attributes) so this module stays free of config
    imports.  Returns :data:`NULL_TRACER` when nothing is enabled.
    """
    exporters: list[Exporter] = []
    if getattr(obs, "trace_path", None):
        exporters.append(JsonlExporter(obs.trace_path, meta=meta))
    if getattr(obs, "trace_memory", False):
        exporters.append(MemoryExporter())
    if getattr(obs, "console_summary", False):
        exporters.append(ConsoleSummaryExporter())
    if not exporters:
        return NULL_TRACER
    return Tracer(exporters)
