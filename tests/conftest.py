"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import typing as t

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.hashing import bit_reverse, key_of, run_key
from repro.core.join_module import join_kinds
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.partition_group import JoinGeometry, WindowStore
from repro.core.probe import key_ranges
from repro.simul.kernel import Simulator
from tests.probers import probe_composites, probe_sorted


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


def probe_store(store, sid: int, ts, rkey, seq, collect_pairs: bool = True):
    """Probe *store* with tuples of stream *sid*, given by their run
    keys, that were never committed: search the run for their keys, then
    join them against its other streams."""
    ranges = key_ranges(store.sorted_run()[0], rkey)
    return store.probe(np.full(len(ts), sid), ts, seq, ranges, collect_pairs)


def flush_head(group, sid: int, ts, key, seq, collect_pairs: bool = True):
    """Flush one head block of stream *sid* the way a join-module unit
    does: probe the other streams' runs of *group* with it, then admit
    it to its own stream's run."""
    ts, key, seq = _columns(ts, key, seq)
    rkey = run_key(key)
    result = probe_store(group.store, sid, ts, rkey, seq, collect_pairs)
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


def pass_rows(n_streams: int):
    """A hypothesis strategy: per stream its committed rows, then per
    kind — full blocks of stream 0, 1, ..., then partial ones — the rows
    of a pass, each row ``(ts, key)``.  Six keys, so that rows tie inside
    a block, a window and across both."""
    from hypothesis import strategies as st

    rows = st.lists(st.tuples(st.floats(0, 30), st.integers(0, 5)), max_size=12)
    return st.tuples(
        st.lists(rows, min_size=n_streams, max_size=n_streams),
        st.lists(rows, min_size=2 * n_streams, max_size=2 * n_streams),
    )


def kind_rule_case(n_streams: int, window: float, old, kinds):
    """A store holding *old* (per stream, ``(ts, key)`` rows) and the
    pass's *kinds* as blocks, and the reference for that pass: each kind
    probes the windows as they are, then joins its stream's window, kind
    by kind.  A key's tuples live in partition ``key % 3`` of three.

    Returns ``(store, blocks, expected, windows)``: ``expected`` is the
    matches as ``(newer timestamps, members by stream id, offsets)``,
    rows grouped by block row in kind then line order; ``windows`` are
    the windows after the pass, per stream ``(run key, ts, seq)`` in
    commit order."""
    geometry = JoinGeometry(
        tuples_per_block=4,
        block_bytes=256,
        theta_bytes=768,
        window_seconds=window,
        fine_tuning=True,
        tuple_bytes=64,
        n_streams=n_streams,
    )
    store = WindowStore(geometry, 3)
    windows, blocks = [], []
    seq = iter(range(10**6))
    for sid, rows in enumerate(old):
        ts, key, seqs = _rows(rows, seq)
        store.commit(sid, run_key(key), ts, seqs, key % 3)
        windows.append((run_key(key), ts, seqs))
    for rows in kinds:
        ts, key, seqs = _rows(rows, seq)
        blocks.append((run_key(key), ts, seqs, key % 3))
    newer, members, counts = [], [], []
    for k, (rkey, ts, seqs, _pid) in enumerate(blocks):
        sid = k % n_streams
        ordered = []
        for o, (w_rkey, w_ts, w_seq) in enumerate(windows):
            order = np.argsort(w_rkey, kind="stable")
            ordered.append((o, w_rkey[order], w_ts[order], w_seq[order]))
        if n_streams == 2:
            _o, w_rkey, w_ts, w_seq = ordered[1 - sid]
            got = probe_sorted(ts, rkey, seqs, w_rkey, w_ts, w_seq, window, True)
            pairs = t.cast(np.ndarray, got.pairs)
            found = (got.newer_ts, pairs if sid == 0 else pairs[:, ::-1], got.offsets)
        else:
            others = [w for w in ordered if w[0] != sid]
            windows_of = dict.fromkeys(range(n_streams), window)
            composites = probe_composites(sid, ts, rkey, seqs, others, windows_of, True)
            found = (composites.newest_ts, composites.members, composites.offsets)
        newer.append(found[0])
        members.append(found[1])
        counts.append(np.diff(found[2]))
        windows[sid] = tuple(
            np.concatenate(col) for col in zip(windows[sid], (rkey, ts, seqs))
        )
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(counts)))).astype(np.intp)
    expected = (np.concatenate(newer), np.concatenate(members), offsets)
    return store, blocks, expected, windows


def _rows(rows, seq):
    ts = np.array([r[0] for r in rows], dtype=np.float64)
    key = np.array([r[1] for r in rows], dtype=np.int64)
    return ts, key, np.array([next(seq) for _ in rows], dtype=np.int64)


def check_kind_rule(n_streams, window, case):
    """One splice and one probe of a pass give the kind-by-kind
    reference's rows, order, offsets, newer timestamps and members, and
    leave each stream's tuples in commit order."""
    old, kinds = case
    store, blocks, expected, windows = kind_rule_case(n_streams, window, old, kinds)
    got = join_kinds(store, blocks, collect_pairs=True)
    newer, members, offsets = expected
    np.testing.assert_array_equal(got.offsets, offsets)
    np.testing.assert_array_equal(got.newer_ts, newer)
    np.testing.assert_array_equal(got.pairs, members)
    for sid, (rkey, ts, seq) in enumerate(windows):
        for pid in range(3):
            mine = (key_of(bit_reverse(rkey)) % 3) == pid
            order = np.argsort(rkey[mine], kind="stable")
            for col, want in zip(store.rows_of(pid, sid), (rkey, ts, seq)):
                np.testing.assert_array_equal(col, want[mine][order])
