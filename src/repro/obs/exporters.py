"""Pluggable trace exporters.

Exporters receive flat JSON-serializable *records* (the output of
:meth:`~repro.obs.events.TraceEvent.to_record`), never the event
objects themselves, so every sink sees exactly what ends up on disk.

Three sinks cover the common workflows:

* :class:`JsonlExporter` — one JSON object per line, for offline
  analysis and ``swjoin report``;
* :class:`MemoryExporter` — in-process list of records, for tests and
  for threading the trace into :class:`~repro.core.system.RunResult`;
* :class:`ConsoleSummaryExporter` — accumulates per-kind counts and
  prints a one-paragraph human summary when the run finishes.
"""

from __future__ import annotations

import json
import threading
import typing as t
from collections import Counter

__all__ = [
    "Exporter",
    "JsonlExporter",
    "MemoryExporter",
    "ConsoleSummaryExporter",
    "merge_records",
    "replay_records",
]

#: Trace schema version stamped into every JSONL meta header.
#: v2: records carry a per-node ``seq``; transport events gained
#: ``phase``/``xfer_seq`` for cross-process send/recv pairing.
TRACE_VERSION = 2


class Exporter:
    """Interface every trace sink implements."""

    def export(self, record: dict[str, t.Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; called once at end of run."""


class MemoryExporter(Exporter):
    """Keeps every record in memory (tests / RunResult threading)."""

    def __init__(self) -> None:
        self.records: list[dict[str, t.Any]] = []

    def export(self, record: dict[str, t.Any]) -> None:
        self.records.append(record)


class JsonlExporter(Exporter):
    """Writes one JSON object per line to *path*.

    The first line is a ``meta`` record carrying the trace schema
    version and a caller-supplied config summary, so readers can
    interpret the file without the producing process.
    """

    def __init__(self, path: str, meta: dict[str, t.Any] | None = None) -> None:
        self.path = path
        self.n_records = 0
        # Guards the file handle: one tracer already serializes its own
        # exports, but nothing stops two tracers (or a tracer plus a
        # merge replay) sharing a sink — a line must never interleave.
        self._lock = threading.Lock()
        self._fh: t.TextIO | None = open(path, "w", encoding="utf-8")
        header = {"kind": "meta", "version": TRACE_VERSION}
        if meta:
            header["config"] = meta
        self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")

    def export(self, record: dict[str, t.Any]) -> None:
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:  # pragma: no cover - defensive
                raise ValueError(f"trace file {self.path} already closed")
            self._fh.write(line)
            self.n_records += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class ConsoleSummaryExporter(Exporter):
    """Counts records per kind; prints a summary line on close."""

    def __init__(self, stream: t.TextIO | None = None) -> None:
        self.counts: Counter[str] = Counter()
        self._stream = stream

    def export(self, record: dict[str, t.Any]) -> None:
        self.counts[record.get("kind", "?")] += 1

    def summary(self) -> str:
        if not self.counts:
            return "trace: no events"
        parts = [f"{kind}={n}" for kind, n in sorted(self.counts.items())]
        return f"trace: {sum(self.counts.values())} events ({' '.join(parts)})"

    def close(self) -> None:
        import sys

        print(self.summary(), file=self._stream or sys.stdout)


def merge_records(
    per_node: t.Mapping[int, t.Sequence[dict[str, t.Any]]],
) -> list[dict[str, t.Any]]:
    """Merge per-node trace buffers into one stable cluster trace.

    Records are ordered by ``(t, node, seq)``: node-local ``seq``
    numbers break wall-clock timestamp ties, so the merged order is a
    pure function of the records themselves — shipping order over the
    control channels never leaks into the output.  ``sorted`` is stable,
    and the key is unique per record (each node stamps a strictly
    increasing ``seq``), so equal inputs always merge identically.
    """
    flat = [
        record for node in sorted(per_node) for record in per_node[node]
    ]
    flat.sort(
        key=lambda r: (r["t"], r["node"], r.get("seq", -1))
    )
    return flat


def replay_records(
    records: t.Iterable[dict[str, t.Any]], exporters: t.Sequence[Exporter]
) -> None:
    """Feed already-merged records through *exporters*, then close them.

    Used by the multi-process launcher: nodes ship their trace batches
    over their control channels, the launcher merges and replays into
    the JSONL/console sinks the config asked for.
    """
    for record in records:
        for exporter in exporters:
            exporter.export(record)
    for exporter in exporters:
        exporter.close()
