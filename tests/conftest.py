"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.hashing import run_key
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.partition_group import JoinGeometry
from repro.simul.kernel import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def tiny_cfg() -> SystemConfig:
    """A fast-running cluster configuration for integration tests:

    3 s window, 12 s run (6 s warm-up), 12 partitions, small theta.
    """
    return (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            npart=12,
            rate=400.0,
            num_slaves=2,
            run_seconds=12.0,
            warmup_seconds=6.0,
            window_seconds=3.0,
            reorg_epoch=4.0,
        )
    )


@pytest.fixture
def geometry() -> JoinGeometry:
    """Small join geometry: 4 tuples per block, theta of 3 blocks."""
    return JoinGeometry(
        tuples_per_block=4,
        block_bytes=256,
        theta_bytes=768,
        window_seconds=10.0,
        fine_tuning=True,
        tuple_bytes=64,
    )


@pytest.fixture
def metrics() -> SlaveMetrics:
    return SlaveMetrics(0, MeasurementWindow(0.0))


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel(SystemConfig.paper_defaults().cost)


def brute_force_pairs(
    ts0: np.ndarray,
    key0: np.ndarray,
    seq0: np.ndarray,
    ts1: np.ndarray,
    key1: np.ndarray,
    seq1: np.ndarray,
    window: float,
) -> set[tuple[int, int]]:
    """O(n*m) reference join used to cross-check the oracles."""
    out = set()
    for i in range(len(ts0)):
        for j in range(len(ts1)):
            if key0[i] == key1[j] and abs(ts0[i] - ts1[j]) <= window:
                out.add((int(seq0[i]), int(seq1[j])))
    return out


def assert_slave_views_agree(result) -> None:
    """``RunResult.node_metrics`` tells, slave by slave, exactly what
    ``RunResult.slaves`` tells: both are read off the same counters."""
    merged = np.zeros_like(result.delays.histogram)
    for snap in result.slaves:
        view = result.node_metrics[snap["node"]]
        for name in ("outputs", "messages", "bytes_sent", "bytes_received"):
            assert view[name]["value"] == snap[name], (snap["node"], name)
        delay = view["production_delay_seconds"]
        assert delay["count"] == snap["delay"]["count"] == snap["outputs"]
        assert delay["sum"] == pytest.approx(
            snap["delay"]["mean"] * snap["delay"]["count"]
        )
        merged += np.asarray(delay["counts"])
    # Per-slave bucket counts are the slaves' own DelayStats histograms.
    assert merged.tolist() == result.delays.histogram.tolist()


def run_pass(module, emit_time: float) -> list[tuple[str, float]]:
    """Drive one bounded pass of *module*, retiring its steps one unit
    at a time, every unit at *emit_time*; returns each unit's ``(kind,
    cost)`` in order."""
    emit = np.array([float(emit_time)])
    units = []
    for step in module.steps():
        for i, cost in enumerate(step.costs.tolist()):
            step.retire(i, i + 1, emit)
            units.append((step.kind, cost))
    return units


def drain(module, emit_time: float) -> list[tuple[str, float]]:
    """:func:`run_pass` until *module* has no buffered work left."""
    units = []
    while module.has_work:  # passes are bounded to one batch per pid
        units += run_pass(module, emit_time)
    return units


def flush_head(group, sid: int, ts, key, seq, collect_pairs: bool = True):
    """Flush one head block of stream *sid* the way a join-module unit
    does: probe the opposite stream's run of *group* with it, then admit
    it to its own stream's run."""
    ts, key, seq = _columns(ts, key, seq)
    rkey = run_key(key)
    result = group.probe(1 - sid, ts, rkey, seq, collect_pairs=collect_pairs)
    group.admit(sid, rkey, ts, seq)
    return result


def commit_rows(group, sid: int, ts, key, seq) -> None:
    """Commit tuples of stream *sid* straight to *group* (arrival order
    kept) through its admission call."""
    ts, key, seq = _columns(ts, key, seq)
    group.admit(sid, run_key(key), ts, seq)


def _columns(ts, key, seq):
    return (
        np.asarray(ts, dtype=float),
        np.asarray(key, dtype=np.int64),
        np.asarray(seq, dtype=np.int64),
    )


def tune(group, busy=frozenset()) -> None:
    """One maintenance round on *group*: split what is oversized, merge
    what is undersized.  Mini-groups whose patterns are in *busy* (the
    caller holds head-block tuples of theirs) are left alone."""
    for bucket in group.oversized_buckets():
        if bucket.pattern not in busy:
            group.split_bucket(bucket)
    directory = group.directory
    for bucket in directory.buckets():
        if directory.bucket_for(bucket.pattern) is not bucket:
            continue  # merged away this round
        buddy = directory.buddy_of(bucket)
        if buddy is not None and not {bucket.pattern, buddy.pattern} & busy:
            group.try_merge_bucket(bucket)
