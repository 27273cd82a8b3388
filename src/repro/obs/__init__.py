"""Observability: structured tracing + time-series sampling.

The subsystem has three layers, all near-zero cost when disabled:

* :mod:`repro.obs.events` / :mod:`repro.obs.tracer` — typed trace
  events fanned out to pluggable exporters;
* :mod:`repro.obs.exporters` — JSONL file, in-memory, console-summary
  sinks;
* :mod:`repro.obs.sampler` — bounded decimating reservoirs and the
  periodic per-node gauge sampler.

:mod:`repro.obs.metrics` renders the run's own counters as typed
per-node counter/gauge/histogram samples and :mod:`repro.obs.admin`
serves them on the opt-in HTTP admin endpoint (``/health``,
``/status``, Prometheus ``/metrics``).

:mod:`repro.obs.report` (imported lazily by the CLI — it pulls in the
analysis layer) renders epoch timelines, hot-partition tables and
cross-node views from a JSONL trace.
"""

from repro.obs.events import (
    ClassifyEvent,
    DirectoryEvent,
    DodEvent,
    DrainEvent,
    EpochEvent,
    MergeEvent,
    ReorgEvent,
    SampleEvent,
    SplitEvent,
    StateMoveEvent,
    TraceEvent,
    TransportEvent,
)
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    Exporter,
    JsonlExporter,
    MemoryExporter,
    merge_records,
    replay_records,
)
from repro.obs.metrics import render_prometheus
from repro.obs.sampler import Reservoir, TimeSeriesSampler
from repro.obs.tracer import NULL_TRACER, Tracer, build_tracer

__all__ = [
    "TraceEvent",
    "EpochEvent",
    "DrainEvent",
    "ClassifyEvent",
    "ReorgEvent",
    "DodEvent",
    "SplitEvent",
    "MergeEvent",
    "DirectoryEvent",
    "StateMoveEvent",
    "TransportEvent",
    "SampleEvent",
    "Exporter",
    "JsonlExporter",
    "MemoryExporter",
    "ConsoleSummaryExporter",
    "merge_records",
    "replay_records",
    "render_prometheus",
    "Reservoir",
    "TimeSeriesSampler",
    "Tracer",
    "NULL_TRACER",
    "build_tracer",
]
