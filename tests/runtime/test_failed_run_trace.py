"""A failed traced wall run keeps the trace that reached the launcher:
the failing node flushes its tracer before it ships its error, and the
launcher drives the sinks before it re-raises."""

import json

import pytest

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.cluster import slave_node_id
from repro.core.slave import SlaveNode
from repro.core.system import JoinSystem

FAILING = slave_node_id(1)


def test_a_failed_process_run_writes_the_trace_it_received(
    tmp_path, monkeypatch
):
    report = SlaveNode._report_results

    def failing_report(self, k):
        if self.node_id == FAILING and k == 3:
            raise RuntimeError("planted failure")
        return report(self, k)

    # The forked nodes inherit the patch.
    monkeypatch.setattr(SlaveNode, "_report_results", failing_report)
    path = tmp_path / "trace.jsonl"
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.02)
        .with_(
            backend="process",
            time_scale=0.02,
            run_seconds=10.0,
            warmup_seconds=2.0,
            obs=ObservabilityConfig(trace_path=str(path), sample_period=2.0),
        )
    )
    with pytest.raises(RuntimeError, match=f"node {FAILING} failed"):
        JoinSystem(cfg).run()

    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    nodes = {record["node"] for record in records}
    assert FAILING in nodes
    assert nodes - {FAILING}, "only the failing node's records survived"
