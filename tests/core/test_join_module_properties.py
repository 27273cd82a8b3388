"""Stateful property wall over the join module.

Nothing else in ``tests/`` is stateful above one partition-group.  Here
hypothesis draws interleavings of everything that touches a slave's
window state — shipments, bounded passes, partition moves, replication
checkpoints with crash + log replay, and hand-built states whose head
blocks are non-empty — over two :class:`JoinModule` objects with a
4-tuple block and a theta of three blocks, so splits and merges fire
within a few dozen tuples.  A run has two or five partitions, so a
module routinely owns several partition-groups at once.  Three properties are asserted:

(a) the pair multiset collected over the run equals
    ``brute_force_pairs`` on everything ever shipped;
(b) every pass emits exactly the ``(kind, cost, rows recorded)`` unit
    sequence of :class:`Reference`, a per-unit executor kept in this
    file: fill a head block, probe the opposite stream's tuples of the
    same mini-group, commit — over plain Python rows and
    ``probe_sorted``.  It reads the module under test only for the
    *shape* of its directories (which bucket a key hashes to); sizes,
    costs, matches and the tuning policy are its own;
(c) the module retires its steps in hypothesis-drawn prefixes — one
    unit, the whole step, arbitrary cuts — and wherever a prefix ends,
    what an observer could read between two units (``window_bytes``,
    ``pending_bytes``, ``tuples_processed``, ``outputs_emitted``, and
    per mini-group and stream the committed and head-block tuple counts
    of :meth:`JoinModule.window_counts`) is what the reference holds
    between the same two units; each unit gets its own emit time, so a
    row recorded at another unit's instant is a failure.  After every
    operation each group's running ``total_bytes`` equals the count
    from its runs.

Timestamps are integers so ``|dt| == W`` is common.  A batch is not
timestamp-sorted (stream-1 rows may precede stream-0 rows that are
older), keys repeat or are all equal; each *stream's* timestamps are
non-decreasing, as in every shipment a master sends.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from itertools import count, cycle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.hashing import directory_hash, partition_of
from repro.core.join_module import JoinModule
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.partition_group import (
    GroupState,
    JoinGeometry,
    PartitionGroupState,
)
from repro.core.protocol import Shipment
from repro.data.blocks import block_bytes_used, n_blocks
from repro.data.tuples import TupleBatch
from tests.conftest import brute_force_pairs
from tests.probers import probe_sorted

TPB = 4
NPART = 2
EMIT_TIME = 10_000.0
#: A prefix length no step reaches: "the whole step".
WHOLE = 10**6
COST_MODEL = CostModel(SystemConfig.paper_defaults().cost)


def geometry_for(window: float) -> JoinGeometry:
    return JoinGeometry(
        tuples_per_block=TPB,
        block_bytes=TPB * 64,
        theta_bytes=TPB * 64 * 3,
        window_seconds=window,
        fine_tuning=True,
        tuple_bytes=64,
    )


def rows_of(batch: TupleBatch, sid: int) -> list[tuple]:
    """Stream *sid*'s tuples as ``(ts, key, seq, g(key))`` rows."""
    sub = batch.by_stream(sid)
    hashes = directory_hash(sub.key).tolist()
    return list(zip(sub.ts.tolist(), sub.key.tolist(), sub.seq.tolist(), hashes))


def batch_of(rows: list[tuple], sid: int) -> TupleBatch:
    return TupleBatch.build(
        ts=[r[0] for r in rows],
        key=[r[1] for r in rows],
        seq=[r[2] for r in rows],
        stream=np.full(len(rows), sid, dtype=np.uint8),
    )


class Reference:
    """The per-unit executor the join module must be indistinguishable
    from: one probe per head block, against the opposite stream's
    committed tuples of that one mini-group."""

    def __init__(self, geometry: JoinGeometry) -> None:
        self.g = geometry
        self.committed: dict = defaultdict(list)  # (pid, sid) -> rows
        self.heads: dict = defaultdict(list)  # (pid, pattern, sid) -> rows
        self.queues: dict = defaultdict(deque)  # pid -> TupleBatch

    @staticmethod
    def pattern(group, row) -> int:
        return group.directory.bucket_for(row[3]).pattern

    def mini(self, group, sid: int, pattern: int) -> list[tuple]:
        rows = self.committed[group.pid, sid]
        return [r for r in rows if self.pattern(group, r) == pattern]

    def bytes_used(self, group, bucket) -> int:
        return sum(
            block_bytes_used(
                len(self.mini(group, sid, bucket.pattern)), TPB, self.g.block_bytes
            )
            for sid in (0, 1)
        )

    def flush(self, group, pattern: int, sid: int):
        head = self.heads[group.pid, pattern, sid]
        window = self.mini(group, 1 - sid, pattern)
        cost = COST_MODEL.probe_cost(
            len(head), n_blocks(len(window), TPB) * self.g.block_bytes
        )
        window.sort(key=lambda r: r[1])  # stable: ties keep commit order
        probe, sorted_ = batch_of(head, sid), batch_of(window, 1 - sid)
        result = probe_sorted(
            probe.ts, probe.key, probe.seq,
            sorted_.key, sorted_.ts, sorted_.seq,
            self.g.window_seconds, collect_pairs=True,
        )
        self.committed[group.pid, sid].extend(head)
        head.clear()
        pairs = result.pairs[:, ::-1] if sid else result.pairs
        rows = [("outputs", result.newer_ts.tolist())]
        if len(pairs):
            rows.append(("pairs", group.pid, pairs.tolist()))
        return "probe", cost, rows

    def units(self, module: JoinModule, cutoff: float):
        drained = {
            pid: queue.popleft()
            for pid, queue in self.queues.items()
            if queue and pid in module.groups
        }
        if not drained:
            return
        owned = [rows for (pid, _), rows in self.committed.items()
                 if pid in module.groups]
        expired = sum(r[0] < cutoff for rows in owned for r in rows)
        yield "expire", COST_MODEL.expire_cost(expired * self.g.tuple_bytes), []
        for rows in owned:
            rows[:] = [r for r in rows if r[0] >= cutoff]
        for pid in sorted(drained):
            group = module.groups[pid]
            for sid in (0, 1):
                rows = rows_of(drained[pid], sid)
                for pattern in sorted({self.pattern(group, r) for r in rows}):
                    head = self.heads[pid, pattern, sid]
                    for row in rows:
                        if self.pattern(group, row) != pattern:
                            continue
                        if len(head) == TPB:  # a hand-built full head
                            yield self.flush(group, pattern, sid)
                        head.append(row)
                        if len(head) == TPB:
                            yield self.flush(group, pattern, sid)
            for bucket in group.directory.buckets():
                for sid in (0, 1):
                    if self.heads.get((pid, bucket.pattern, sid)):
                        yield self.flush(group, bucket.pattern, sid)
            yield from self.tuning(group)

    def tuning(self, group):
        theta, directory = self.g.theta_bytes, group.directory
        while True:
            oversized = [
                b
                for b in directory.buckets()
                if self.bytes_used(group, b) > 2 * theta
                and directory.can_split(b)
                and len({
                    r[3] >> b.local_depth
                    for sid in (0, 1)
                    for r in self.mini(group, sid, b.pattern)
                }) > 1
            ]
            if not oversized:
                break
            for bucket in oversized:
                cost = COST_MODEL.tuning_cost(self.bytes_used(group, bucket))
                yield "tune", cost, []
        undersized = [
            b
            for b in directory.buckets()
            if b.local_depth and self.bytes_used(group, b) < theta
        ]
        for bucket in undersized:
            if directory.bucket_for(bucket.pattern) is not bucket:
                continue  # already merged away this round
            buddy = directory.buddy_of(bucket)
            if buddy is None:
                continue
            combined = self.bytes_used(group, bucket) + self.bytes_used(group, buddy)
            if combined < 2 * theta:
                yield "tune", COST_MODEL.tuning_cost(combined), []


class RecordingMetrics(SlaveMetrics):
    """Keeps what is recorded, row by row, in call order."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id, MeasurementWindow(0.0))
        self.outputs: list = []  # (emit time, newer ts) per output row
        self.pair_rows: list = []  # (pid, s0 seq, s1 seq) per pair

    def record_outputs(self, emit_time, newer_ts) -> None:
        emits = np.broadcast_to(emit_time, newer_ts.shape)
        self.outputs.extend(zip(emits.tolist(), newer_ts.tolist()))
        super().record_outputs(emit_time, newer_ts)

    def record_pairs(self, pid, rows) -> None:
        self.pair_rows.extend((pid, *row) for row in rows.tolist())
        super().record_pairs(pid, rows)


class Harness:
    """Two join modules, the reference beside them, and the trace."""

    def __init__(self, window: float, npart: int = NPART) -> None:
        self.npart = npart
        self.geometry = geometry_for(window)
        self.ref = Reference(self.geometry)
        self.metrics = [RecordingMetrics(0), RecordingMetrics(1)]
        self.modules = [
            JoinModule(i, self.geometry, COST_MODEL, npart, m, collect_pairs=True)
            for i, m in enumerate(self.metrics)
        ]
        for pid in range(npart):
            self.modules[0].add_partition(pid)
        self.clock = 0.0
        #: Every unit of the run is retired at an emit time of its own.
        self.emit_clock = count()
        self.next_seq = [0, 0]
        self.trace: list[TupleBatch] = []
        #: Pairs that left a module with a checkpoint (they survive a crash).
        self.banked: list[np.ndarray] = []
        #: pid -> (state, buffered, log since, the reference's copy).
        self.checkpoints: dict = {}

    def owner(self, pid: int) -> JoinModule:
        return next(m for m in self.modules if pid in m.groups)

    # -- operations -------------------------------------------------------
    def enqueue(self, rows, stream1_first: bool) -> None:
        stamped = []
        for sid, dt, key in rows:
            self.clock += dt
            stamped.append((self.clock, key, self.next_seq[sid], sid))
            self.next_seq[sid] += 1
        if stream1_first:  # unsorted as a whole, sorted per stream
            stamped.sort(key=lambda r: -r[3])
        batch = TupleBatch.build(*(list(col) for col in zip(*stamped)))
        self.trace.append(batch)
        pids = partition_of(batch.key, self.npart)
        start = float(batch.ts.min())
        for module in self.modules:
            mine = batch.select(np.isin(pids, list(module.groups)))
            module.enqueue(Shipment(0, start, self.clock, mine))
        for pid in np.unique(pids).tolist():
            sub = batch.select(pids == pid)
            self.ref.queues[pid].append(sub)
            if pid in self.checkpoints:
                self.checkpoints[pid][2].append(sub)

    def run_pass(self, which: int, cuts=(WHOLE,)) -> None:
        """One pass of module *which*, each step retired in prefixes of
        the lengths *cuts* cycles through."""
        module, metrics, ref = self.modules[which], self.metrics[which], self.ref
        owned = set(module.groups)
        held = [
            row[0]
            for (pid, _pattern, _sid), rows in ref.heads.items()
            if pid in owned
            for row in rows
        ]
        if held:
            # Head tuples are in no queue, so the expiry watermark does
            # not see them; a live module never holds any between
            # passes.  A hand-built state does: pin the watermark the
            # way a shipment's ``epoch_start`` would.
            module.enqueue(Shipment(0, min(held), min(held), TupleBatch.empty()))
        cutoff = module._oldest_pending_ts - self.geometry.window_seconds

        # What the pass starts from, read off the reference alone.
        drained = sum(len(q[0]) for pid, q in ref.queues.items() if q and pid in owned)
        expired = sum(
            row[0] < cutoff
            for (pid, _sid), rows in ref.committed.items()
            if pid in owned
            for row in rows
        )
        in_windows = self._ref_tuples(owned)
        processed, emitted = metrics.tuples_processed, metrics.outputs_emitted
        pulled = n_rows = 0
        due = False  # a state check is owed at the next between-units point

        def check_state() -> None:
            """The module now against the reference now."""
            nonlocal due
            due = False
            after_expiry = in_windows - (expired if pulled else 0)
            admitted = self._ref_tuples(owned) - after_expiry
            queued = sum(len(b) for pid in owned for b in ref.queues.get(pid, ()))
            tb = self.geometry.tuple_bytes
            assert module.pending_bytes == (queued + drained - admitted) * tb
            assert metrics.tuples_processed == processed + admitted
            assert metrics.outputs_emitted == emitted + n_rows
            self._check_windows(module)

        # The reference flushes a unit before it yields it; what sits
        # *between* two units is its state on entry to the flush.
        def flush(group, pattern, sid):
            if due:
                check_state()
            return Reference.flush(ref, group, pattern, sid)

        ref.flush = flush
        expected = ref.units(module, cutoff)
        sizes = cycle(cuts)
        for step in module.steps():
            lo, n = 0, len(step.costs)
            assert n > 0
            while lo < n:
                hi = min(n, lo + next(sizes))
                # The reference runs ahead of the module by the prefix:
                # it only reads the directory's shape, which a prefix
                # never changes under it (a round of splits is sized
                # before any of them runs).
                due = True
                want = []
                for _ in range(lo, hi):
                    want.append(next(expected))
                    if due:  # not a flush: the reference yields, then acts
                        check_state()
                    pulled += 1
                emits = [EMIT_TIME + next(self.emit_clock) for _ in range(lo, hi)]
                metrics.outputs, metrics.pair_rows = [], []
                step.retire(lo, hi, np.array(emits))
                outputs, pairs = [], []
                for emit, cost, (kind, want_cost, rows) in zip(
                    emits, step.costs[lo:hi].tolist(), want
                ):
                    assert (step.kind, cost) == (kind, want_cost)
                    for row in rows:
                        if row[0] == "outputs":
                            outputs += [(emit, newer) for newer in row[1]]
                        else:
                            pairs += [(row[1], *pair) for pair in row[2]]
                assert metrics.outputs == outputs
                assert metrics.pair_rows == pairs
                n_rows += len(outputs)
                lo = hi
        assert next(expected, None) is None
        del ref.flush
        if pulled:
            check_state()

    def _ref_tuples(self, pids) -> int:
        """Tuples the reference holds in the windows of *pids*."""
        ref = self.ref
        return sum(
            len(rows) for (pid, _), rows in ref.committed.items() if pid in pids
        ) + sum(len(rows) for (pid, _, _), rows in ref.heads.items() if pid in pids)

    def _check_windows(self, module) -> None:
        """Every mini-group of *module* holds, per stream, the committed
        and head-block tuples the reference says, and the byte totals
        follow from those counts."""
        ref, g = self.ref, self.geometry
        total = 0
        for pid, group in module.groups.items():
            committed, head = module.window_counts(pid)
            patterns = [b.pattern for b in group.directory.buckets()]
            for sid in (0, 1):
                per_pattern = Counter(
                    ref.pattern(group, row) for row in ref.committed.get((pid, sid), ())
                )
                assert committed[:, sid].tolist() == [per_pattern[p] for p in patterns]
                assert head[:, sid].tolist() == [
                    len(ref.heads.get((pid, p, sid), ())) for p in patterns
                ]
            held = sum(
                block_bytes_used(n, TPB, g.block_bytes)
                for n in (committed + head).ravel().tolist()
            )
            assert group.total_bytes == held
            total += held
        assert module.window_bytes == total

    def check_totals(self) -> None:
        for module in self.modules:
            for group in module.groups.values():
                assert group.total_bytes == group.bytes_used

    def _install(self, module, pid, state, buffered, log=None) -> None:
        if log is None:
            module.install_partition(pid, state, buffered)
        else:
            module.restore_partition(pid, state, buffered, log)
        queued = [b for b in (buffered, *(log or ())) if len(b)]
        self.ref.queues[pid] = deque(queued)

    def move(self, pid: int, rehead: list[int] | None = None) -> None:
        """Migrate *pid* to the other module; with *rehead*, first move
        that many buffered tuples per stream into the head blocks of a
        hand-built state (never all: a pass must still visit *pid*)."""
        src = self.owner(pid)
        dst = self.modules[1 - self.modules.index(src)]
        state, buffered = src.extract_partition(pid)
        if rehead is not None:
            state, buffered = self._reheaded(pid, state, buffered, rehead)
        self._install(dst, pid, state, buffered)

    def _reheaded(self, pid, state, buffered, counts):
        if len(buffered) <= sum(counts):
            return state, buffered
        heads = defaultdict(list)
        for (p, pattern, sid), rows in self.ref.heads.items():
            if p == pid and rows:
                heads[pattern, sid] = list(rows)
        keep = np.ones(len(buffered), dtype=bool)
        for sid, count in enumerate(counts):
            index = np.flatnonzero(buffered.stream == sid)[:count]
            rows = rows_of(buffered.take(index), sid)
            for at, row in zip(index.tolist(), rows):
                group = next(
                    g for g in state.groups
                    if row[3] & ((1 << g.local_depth) - 1) == g.pattern
                )
                head = heads[group.pattern, sid]
                if len(head) == TPB:
                    break  # full; what moves stays a per-stream prefix
                head.append(row)
                keep[at] = False
        groups = tuple(
            GroupState(
                g.pattern,
                g.local_depth,
                tuple(
                    (committed, batch_of(heads[g.pattern, sid], sid))
                    for sid, (committed, _fresh) in enumerate(g.streams)
                ),
            )
            for g in state.groups
        )
        for (pattern, sid), rows in heads.items():
            self.ref.heads[pid, pattern, sid] = rows
        return (
            PartitionGroupState(state.pid, state.global_depth, groups),
            buffered.select(keep),
        )

    def checkpoint(self, pid: int) -> None:
        state, buffered = self.owner(pid).snapshot_partition(pid)
        for metrics in self.metrics:
            pairs = metrics.pop_pairs(pid)
            if pairs is not None:
                self.banked.append(pairs)
        ref = self.ref
        kept = (
            {k: list(v) for k, v in ref.committed.items() if k[0] == pid},
            {k: list(v) for k, v in ref.heads.items() if k[0] == pid},
        )
        self.checkpoints[pid] = (state, buffered, [], kept)

    def crash_and_restore(self, pid: int, onto: int) -> None:
        if pid not in self.checkpoints:
            return
        state, buffered, log, (committed, heads) = self.checkpoints[pid]
        self.owner(pid).extract_partition(pid)  # lost with the node
        for metrics in self.metrics:
            metrics.pop_pairs(pid)  # output since the checkpoint: lost too
        for table, kept in ((self.ref.committed, committed), (self.ref.heads, heads)):
            for key in [k for k in table if k[0] == pid]:
                del table[key]
            table.update({k: list(v) for k, v in kept.items()})
        self._install(self.modules[onto], pid, state, buffered, log)

    # -- verdict ----------------------------------------------------------
    def finish(self, cuts=(WHOLE,)) -> None:
        while any(m.has_work for m in self.modules):
            for which in (0, 1):
                self.run_pass(which, cuts)
        chunks = self.banked + [c for m in self.metrics for c in m.pair_chunks()]
        found = [tuple(r) for c in chunks for r in c.tolist()]
        trace = TupleBatch.concat(self.trace) if self.trace else TupleBatch.empty()
        s0, s1 = trace.by_stream(0), trace.by_stream(1)
        expected = brute_force_pairs(
            s0.ts, s0.key, s0.seq, s1.ts, s1.key, s1.seq,
            self.geometry.window_seconds,
        )
        assert len(found) == len(expected), "pairs lost or duplicated"
        assert set(found) == expected


@st.composite
def scenarios(draw):
    n_keys = draw(st.sampled_from([1, 3, 16, 64]))  # 1 => all keys equal
    npart = draw(st.sampled_from([2, 5]))
    # Mostly simultaneous arrivals, now and then a jump that expires
    # every window (what makes mini-groups undersized, so merges fire).
    row = st.tuples(
        st.integers(0, 1),
        st.sampled_from([0, 0, 0, 0, 1, 1, 2, 40]),
        st.integers(0, n_keys - 1),
    )
    pid = st.integers(0, npart - 1)
    # How a pass retires its steps: unit by unit, whole, or in pieces.
    cuts = st.one_of(
        st.just([1]),
        st.just([WHOLE]),
        st.lists(st.integers(1, 7), min_size=1, max_size=5),
    )
    # Sizes are drawn first: hypothesis's own list lengths stay far too
    # short for a mini-group to outgrow two thetas.
    batch = st.integers(1, 48).flatmap(
        lambda n: st.lists(row, min_size=n, max_size=n)
    )
    op = st.one_of(
        st.tuples(st.just("enqueue"), batch, st.booleans()),
        st.tuples(st.just("enqueue"), batch, st.booleans()),
        st.tuples(st.just("pass"), st.integers(0, 1), cuts),
        st.tuples(st.just("pass"), st.integers(0, 1), cuts),
        st.tuples(st.just("move"), pid),
        st.tuples(st.just("rehead"), pid,
                  st.lists(st.integers(0, TPB), min_size=2, max_size=2)),
        st.tuples(st.just("checkpoint"), pid),
        st.tuples(st.just("restore"), pid, st.integers(0, 1)),
    )
    window = float(draw(st.sampled_from([2, 8, 30, 10_000])))
    n_ops = draw(st.integers(0, 40))
    ops = draw(st.lists(op, min_size=n_ops, max_size=n_ops))
    return window, npart, ops, draw(cuts)


@given(scenario=scenarios())
@settings(max_examples=150, deadline=None)
def test_module_equals_per_unit_reference_and_oracle(scenario):
    window, npart, ops, last_cuts = scenario
    harness = Harness(window, npart)
    for op, *args in ops:
        harness.check_totals()
        if op == "enqueue":
            harness.enqueue(*args)
        elif op == "pass":
            harness.run_pass(*args)
        elif op == "move":
            harness.move(*args)
        elif op == "rehead":
            harness.move(args[0], rehead=args[1])
        elif op == "checkpoint":
            harness.checkpoint(*args)
        else:
            harness.crash_and_restore(*args)
    harness.finish(last_cuts)
    harness.check_totals()


def test_scenarios_reach_splits_merges_and_full_hand_built_heads():
    """The wall is only worth its name if tuning fires under it: a
    fixed scenario that splits, merges, migrates a hand-built state
    with a *full* head block and restores from a checkpoint."""
    harness = Harness(window=6.0)
    spread = [(i % 2, 0, i) for i in range(48)]  # 48 keys at one instant
    harness.enqueue(spread, False)
    harness.run_pass(0, cuts=[2, 5])
    assert harness.metrics[0].splits > 0
    harness.checkpoint(0)
    harness.enqueue([(0, 0, 5)] * 6 + [(1, 0, 5)] * 3, True)
    harness.move(0, rehead=[TPB, 1])
    pid_of_5 = int(partition_of(np.array([5]), NPART)[0])
    if pid_of_5 == 0:
        assert any(len(v) == TPB for v in harness.ref.heads.values())
    harness.run_pass(1, cuts=[1])
    harness.crash_and_restore(0, onto=0)
    harness.enqueue([(0, 9, 1), (1, 9, 2)], False)  # everything expires
    harness.run_pass(0)
    harness.run_pass(1)
    harness.enqueue([(0, 1, 3), (1, 0, 3)], False)
    harness.finish(cuts=[3])
    assert sum(m.merges for m in harness.metrics) > 0
