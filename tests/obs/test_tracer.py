"""Tracer fan-out, exporters, and the config-driven factory."""

import io
import json

import pytest

from repro.config import ObservabilityConfig
from repro.errors import ConfigError
from repro.obs.events import (
    EVENT_KINDS,
    DodEvent,
    EpochEvent,
    SplitEvent,
    TraceEvent,
)
from repro.obs.exporters import (
    ConsoleSummaryExporter,
    JsonlExporter,
    MemoryExporter,
    TRACE_VERSION,
)
from repro.obs.tracer import NULL_TRACER, Tracer, build_tracer


def _split(t=1.0, node=2, pid=3):
    return SplitEvent(t=t, node=node, pid=pid, n_buckets=4, depth=2, bytes=100)


class TestEvents:
    def test_to_record_is_flat_and_keyed_by_kind(self):
        record = _split().to_record()
        assert record["kind"] == "split"
        assert record["t"] == 1.0
        assert record["node"] == 2
        assert record["pid"] == 3

    def test_tuples_serialize_to_lists(self):
        event = DodEvent(
            t=0.0, node=0, epoch=1, n_active=3, activated=(4,), deactivated=()
        )
        record = event.to_record()
        assert json.loads(json.dumps(record))["activated"] == [4]

    def test_kinds_are_unique(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))
        assert "event" not in EVENT_KINDS  # the abstract base


class TestTracer:
    def test_null_tracer_is_disabled_noop(self):
        assert not NULL_TRACER.enabled
        NULL_TRACER.emit(_split())
        assert NULL_TRACER.n_events == 0
        assert NULL_TRACER.memory_records() is None
        NULL_TRACER.close()  # never raises

    def test_fan_out_to_all_exporters(self):
        a, b = MemoryExporter(), MemoryExporter()
        tracer = Tracer([a, b])
        assert tracer.enabled
        tracer.emit(_split())
        assert len(a.records) == len(b.records) == 1
        assert tracer.n_events == 1
        assert tracer.memory_records() is a.records

    def test_exporters_receive_records_not_events(self):
        sink = MemoryExporter()
        Tracer([sink]).emit(_split())
        assert isinstance(sink.records[0], dict)
        assert not isinstance(sink.records[0], TraceEvent)


class TestJsonlExporter:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        exporter = JsonlExporter(path, meta={"rate": 100.0})
        tracer = Tracer([exporter])
        tracer.emit(
            EpochEvent(
                t=2.0, node=0, epoch=0, phase="dist", active=2, buffered_bytes=0
            )
        )
        tracer.emit(_split())
        tracer.close()

        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8").read().splitlines()
        ]
        assert lines[0] == {
            "kind": "meta",
            "version": TRACE_VERSION,
            "config": {"rate": 100.0},
        }
        assert [r["kind"] for r in lines[1:]] == ["epoch", "split"]
        assert exporter.n_records == 2

    def test_close_is_idempotent(self, tmp_path):
        exporter = JsonlExporter(str(tmp_path / "t.jsonl"))
        exporter.close()
        exporter.close()


class TestConsoleSummaryExporter:
    def test_summary_counts_kinds(self):
        stream = io.StringIO()
        exporter = ConsoleSummaryExporter(stream=stream)
        tracer = Tracer([exporter])
        tracer.emit(_split())
        tracer.emit(_split())
        tracer.close()
        assert "2 events" in stream.getvalue()
        assert "split=2" in stream.getvalue()

    def test_empty_summary(self):
        assert "no events" in ConsoleSummaryExporter().summary()


class TestBuildTracer:
    def test_nothing_enabled_returns_shared_null(self):
        assert build_tracer(ObservabilityConfig()) is NULL_TRACER

    def test_memory(self):
        tracer = build_tracer(ObservabilityConfig(trace_memory=True))
        assert tracer.enabled
        assert tracer.memory_records() == []

    def test_jsonl_with_meta(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = build_tracer(
            ObservabilityConfig(trace_path=path), meta={"seed": 1}
        )
        tracer.close()
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["config"] == {"seed": 1}

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ObservabilityConfig(sample_period=-1.0).validated()
        with pytest.raises(ConfigError):
            # Transport spans need a tracer to land in.
            ObservabilityConfig(trace_transport=True).validated()
        ObservabilityConfig(
            trace_memory=True, trace_transport=True, sample_period=1.0
        ).validated()
