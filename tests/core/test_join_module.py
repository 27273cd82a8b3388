"""The slave join module: buffering, work units, exactness on one node."""

import numpy as np
import pytest

from repro.core.costmodel import CostModel
from repro.core.join_module import JoinModule
from repro.core.metrics import MeasurementWindow, SlaveMetrics
from repro.core.partition_group import JoinGeometry, WindowStore
from repro.core.protocol import Shipment
from repro.config import SystemConfig
from repro.errors import ProtocolError
from repro.reference import naive_window_join
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from tests.conftest import drain, run_pass


def make_module(geometry, npart=4, collect_pairs=False, gate_start=0.0):
    metrics = SlaveMetrics(0, MeasurementWindow(gate_start))
    module = JoinModule(
        0,
        geometry,
        CostModel(SystemConfig.paper_defaults().cost),
        npart,
        metrics,
        collect_pairs=collect_pairs,
    )
    for pid in range(npart):
        module.add_partition(pid)
    return module, metrics


def process_all(module, emit_time=100.0):
    costs = [cost for _kind, cost in drain(module, emit_time)]
    assert all(cost >= 0.0 for cost in costs)
    return sum(costs, 0.0)


def workload_batch(t0, t1, rate=200.0, seed=0, domain=1000):
    wl = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(seed), rate, 0.7, domain
    )
    return wl.generate(t0, t1)


class TestBuffering:
    def test_enqueue_tracks_pending_bytes(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        assert module.pending_bytes == len(batch) * geometry.tuple_bytes
        assert module.has_work

    def test_processing_drains_pending(self, geometry):
        module, metrics = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        process_all(module)
        assert module.pending_bytes == 0
        assert not module.has_work
        assert metrics.tuples_processed == len(batch)

    def test_occupancy(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        expected = len(batch) * geometry.tuple_bytes / 4096
        assert module.occupancy(4096) == pytest.approx(expected)

    def test_unowned_partition_rejected(self, geometry):
        module, _ = make_module(geometry, npart=4)
        module.extract_partition(2)
        batch = workload_batch(0.0, 4.0)
        with pytest.raises(ProtocolError, match="does not own|it does not own"):
            module.enqueue(Shipment(0, 0.0, 4.0, batch))

    def test_empty_shipment_is_fine(self, geometry):
        module, _ = make_module(geometry)
        from repro.data.tuples import TupleBatch

        module.enqueue(Shipment(0, 0.0, 2.0, TupleBatch.empty()))
        assert not module.has_work


class TestProcessing:
    def test_single_node_matches_oracle(self, geometry):
        module, metrics = make_module(geometry, collect_pairs=True)
        full = []
        for epoch in range(10):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, seed=1)
            full.append(batch)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module, emit_time=(epoch + 1) * 2.0)
        from repro.data.tuples import TupleBatch

        trace = TupleBatch.concat(full)
        expected = naive_window_join(trace, geometry.window_seconds)
        got = (
            np.concatenate(metrics.pair_chunks())
            if metrics.pairs
            else np.empty((0, 2), dtype=np.int64)
        )
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        assert np.array_equal(got, expected)

    def test_window_bytes_grows_then_stabilizes(self, geometry):
        module, _ = make_module(geometry)
        sizes = []
        for epoch in range(30):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, seed=2)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
            sizes.append(module.window_bytes)
        # Window = 10 s = 5 epochs: size at epoch 25 ~ size at epoch 29.
        assert sizes[10] > sizes[2]
        assert abs(sizes[-1] - sizes[-3]) < 0.5 * sizes[-1]

    def test_expiry_uses_oldest_pending_timestamp(self, geometry):
        """A late shipment carrying old tuples (post-move) must not be
        preceded by an over-aggressive expiry."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        early = TupleBatch.build(ts=[0.0], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, early))
        process_all(module)
        # A shipment whose epoch_start is recent but carrying an old
        # tuple (window = 10 s, partner at ts=0 still valid for ts=9).
        late = TupleBatch.build(ts=[9.0], key=[7], seq=[100], stream=1)
        module.enqueue(Shipment(5, 9.5, 11.5, late))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        assert got.tolist() == [[0, 100]]

    def test_unsorted_shipment_watermark_uses_true_minimum(self, geometry):
        """Regression: the pending watermark once read ``ts[0]`` instead
        of ``ts.min()``.  A shipment whose *first* tuple is newer than a
        later one (moved-state replays are concatenations, not sorted
        merges) then over-advanced expiry and silently dropped pairs."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        partner = TupleBatch.build(ts=[0.2], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, partner))
        process_all(module)
        # Unsorted batch: first ts is 9.0, true oldest is 0.5.  With a
        # 10 s window the cutoff from ts.min() keeps the ts=0.2 partner
        # alive; a first-element watermark would have expired it.
        jumbled = TupleBatch.build(
            ts=[9.0, 0.5], key=[7, 7], seq=[100, 101], stream=[1, 1]
        )
        assert float(jumbled.ts[0]) > float(jumbled.ts.min())
        module.enqueue(Shipment(5, 9.5, 11.5, jumbled))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        assert sorted(got.tolist()) == [[0, 100], [0, 101]]

    def test_watermark_scans_all_queued_batches(self, geometry):
        """Regression: the pending watermark once read only each queue's
        *head* batch when re-arming after a drain.  A later batch can
        hold older tuples (restore-replay queues a checkpointed
        mini-buffer ahead of logged shipments that overlap it), so a
        head-only watermark over-advanced expiry between passes and
        silently dropped the older batch's pairs."""
        module, metrics = make_module(geometry, collect_pairs=True)
        from repro.data.tuples import TupleBatch

        partner = TupleBatch.build(ts=[0.2], key=[7], seq=[0], stream=0)
        module.enqueue(Shipment(0, 0.0, 2.0, partner))
        process_all(module)
        # Three shipments queued for one partition before any pass runs
        # (at most one batch per partition drains per pass).  After
        # pass 1 pops b1, the queue is [b2, b3]: the head b2 is *newer*
        # than b3, so a head-only watermark (10.5) would set the pass-2
        # cutoff to 0.5 and expire the ts=0.2 partner that b3's ts=0.5
        # stream-1 tuple still joins against.
        b1 = TupleBatch.build(ts=[5.0], key=[7], seq=[10], stream=0)
        b2 = TupleBatch.build(ts=[10.5], key=[7], seq=[20], stream=0)
        b3 = TupleBatch.build(ts=[0.5], key=[7], seq=[101], stream=1)
        module.enqueue(Shipment(5, 11.0, 13.0, b1))
        module.enqueue(Shipment(6, 11.0, 13.0, b2))
        module.enqueue(Shipment(7, 11.0, 13.0, b3))
        process_all(module)
        got = np.concatenate(metrics.pair_chunks())
        # b3 joins every stream-0 tuple within W=10: the partner (0.3 s
        # apart), b1 (4.5 s) and b2 (exactly 10.0 s, inclusive).
        assert sorted(got.tolist()) == [[0, 101], [10, 101], [20, 101]]

    def test_rearm_watermark_after_extract_scans_all_batches(self, geometry):
        """The same all-batches rule applies when a partition move pops
        a mini-buffer and the watermark is re-derived from survivors."""
        from repro.core.hashing import partition_of
        from repro.data.tuples import TupleBatch

        module, _ = make_module(geometry, npart=4)
        pid = int(partition_of(np.array([1]), 4)[0])
        old = TupleBatch.build(ts=[40.0], key=[1], seq=[1], stream=0)
        module.enqueue(Shipment(0, 60.0, 62.0, old))
        # Push a *newer* head in front of it, as restore-replay ordering
        # can: the queue's oldest tuple is now behind the head.
        head = TupleBatch.build(ts=[45.0], key=[1], seq=[9], stream=0)
        module._minibuffers[pid].appendleft((45.0, head))
        module._rearm_watermark()
        assert module._oldest_pending_ts == 40.0

    def test_fine_tuning_splits_under_load(self, geometry):
        module, metrics = make_module(geometry, npart=1)
        for epoch in range(5):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, rate=500.0)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
        assert metrics.splits > 0
        group = module.groups[0]
        assert group.n_mini_groups > 1

    def test_no_fine_tuning_keeps_single_minigroup(self, geometry):
        geometry = geometry._replace(fine_tuning=False)
        module, metrics = make_module(geometry, npart=1)
        for epoch in range(5):
            batch = workload_batch(epoch * 2.0, (epoch + 1) * 2.0, rate=500.0)
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            process_all(module)
        assert metrics.splits == 0
        assert module.groups[0].n_mini_groups == 1

    def test_probe_cost_bounded_by_theta_with_tuning(self, geometry):
        """With fine tuning (and subdividable keys) every mini-group
        stays within ~2*theta bytes after maintenance."""
        module, _ = make_module(geometry, npart=1)
        max_scan = 0
        for epoch in range(8):
            batch = workload_batch(
                epoch * 2.0, (epoch + 1) * 2.0, rate=400.0, domain=10_000_001
            )
            module.enqueue(Shipment(epoch, epoch * 2.0, (epoch + 1) * 2.0, batch))
            run_pass(module, (epoch + 1) * 2.0)
            group = module.groups[0]
            for bucket in group.directory.buckets():
                max_scan = max(max_scan, group.bytes_of(bucket))
        # Sizes measured after maintenance: within 2*theta plus the
        # block-rounding slack of the two streams' head blocks.
        assert max_scan <= 2 * geometry.theta_bytes + 2 * geometry.block_bytes

    def test_hot_key_bucket_stops_splitting(self, geometry):
        """A mini-group holding a single hot key cannot be subdivided;
        the tuning policy must leave it alone instead of blowing up the
        directory depth."""
        from repro.data.tuples import TupleBatch

        module, metrics = make_module(geometry, npart=1)
        n = 200  # far above 2*theta worth of tuples, all the same key
        hot = TupleBatch.build(
            ts=np.linspace(0, 1, n), key=np.full(n, 77), stream=0
        )
        module.enqueue(Shipment(0, 0.0, 1.0, hot))
        process_all(module)
        group = module.groups[0]
        assert group.directory.global_depth <= 1
        assert not group.oversized_buckets()


class TestStateMovement:
    def test_extract_includes_unprocessed_buffer(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        states = {}
        buffered_total = 0
        for pid in list(module.owned_pids()):
            state, buffered = module.extract_partition(pid)
            states[pid] = state
            buffered_total += len(buffered)
        assert buffered_total == len(batch)
        assert module.pending_bytes == 0

    def test_install_then_process_produces_pairs(self, geometry):
        src, src_metrics = make_module(geometry, npart=1, collect_pairs=True)
        batch = workload_batch(0.0, 4.0, rate=300.0, seed=5)
        src.enqueue(Shipment(0, 0.0, 4.0, batch))
        process_all(src)
        n_before = sum(len(p) for p in src_metrics.pair_chunks())

        state, buffered = src.extract_partition(0)
        dst, dst_metrics = make_module(geometry, npart=1, collect_pairs=True)
        dst.extract_partition(0)  # make room
        dst.install_partition(0, state, buffered)

        more = workload_batch(4.0, 8.0, rate=300.0, seed=6)
        dst.enqueue(Shipment(2, 4.0, 8.0, more))
        process_all(dst)
        assert sum(len(p) for p in dst_metrics.pair_chunks()) > 0
        assert n_before >= 0

    def test_double_add_rejected(self, geometry):
        module, _ = make_module(geometry)
        with pytest.raises(ProtocolError):
            module.add_partition(0)

    def test_extract_unowned_rejected(self, geometry):
        module, _ = make_module(geometry, npart=2)
        module.extract_partition(1)
        with pytest.raises(ProtocolError):
            module.extract_partition(1)


class TestCosts:
    def test_costs_accumulate_with_load(self, geometry):
        module, _ = make_module(geometry)
        light = workload_batch(0.0, 2.0, rate=50.0)
        module.enqueue(Shipment(0, 0.0, 2.0, light))
        cheap = process_all(module)

        module2, _ = make_module(geometry)
        heavy = workload_batch(0.0, 2.0, rate=1000.0)
        module2.enqueue(Shipment(0, 0.0, 2.0, heavy))
        costly = process_all(module2)
        assert costly > cheap

    def test_probe_charges_whole_committed_blocks_whatever_the_keys(
        self, geometry
    ):
        """The paper's block nested-loop model: a probe is charged for
        every committed block of the opposite window, matching or not."""
        from repro.data.tuples import TupleBatch

        module, _ = make_module(geometry._replace(fine_tuning=False), npart=1)
        committed = TupleBatch.build(
            ts=np.linspace(0, 1, 10), key=np.full(10, 5), stream=1
        )
        module.enqueue(Shipment(0, 0.0, 1.0, committed))
        process_all(module)
        group = module.groups[0]
        (bucket,) = group.directory.buckets()
        opposite = group.committed_bytes(bucket, 1)
        assert opposite == 3 * geometry.block_bytes

        miss = TupleBatch.build(ts=[1.5], key=[99], stream=0)
        module.enqueue(Shipment(1, 1.0, 2.0, miss))
        units = run_pass(module, 10.0)
        assert [cost for kind, cost in units if kind == "probe"] == [
            module.cost_model.probe_cost(1, opposite)
        ]

    def test_unit_kinds(self, geometry):
        module, _ = make_module(geometry)
        batch = workload_batch(0.0, 2.0, rate=600.0)
        module.enqueue(Shipment(0, 0.0, 2.0, batch))
        kinds = {kind for kind, _cost in run_pass(module, 10.0)}
        assert "expire" in kinds
        assert "probe" in kinds


class TestSorting:
    def test_a_pass_sorts_each_block_once_and_labels_narrow(self, monkeypatch):
        """Over large windows, one two-stream pass — the shipment filed,
        then every step run: ``sorted_run`` sorts nothing, no 64-bit
        argsort sees more than the pass's blocks, and every sort of
        mini-group indexes or partition ids runs at 16 bits or fewer."""
        geometry = JoinGeometry(
            tuples_per_block=16,
            block_bytes=1024,
            theta_bytes=32 * 1024,
            window_seconds=1000.0,
            fine_tuning=True,
            tuple_bytes=64,
        )
        module, _ = make_module(geometry, npart=4)
        module.enqueue(Shipment(0, 0.0, 10.0, workload_batch(0.0, 10.0, 1500.0)))
        process_all(module)
        assert all(g.n_mini_groups > 1 for g in module.groups.values())

        sorts, blocks, in_run = [], [], []
        real_argsort = np.argsort
        real_sorted_run = WindowStore.sorted_run
        real_probe = WindowStore.probe

        def argsort(a, *args, **kwargs):
            sorts.append((a.dtype, len(a), bool(in_run)))
            return real_argsort(a, *args, **kwargs)

        def sorted_run(store):
            in_run.append(store)
            try:
                return real_sorted_run(store)
            finally:
                in_run.pop()

        def probe(store, sid, probe_ts, *args, **kwargs):
            blocks.append(len(probe_ts))
            return real_probe(store, sid, probe_ts, *args, **kwargs)

        batch = workload_batch(10.0, 10.5, 1500.0, seed=1)
        monkeypatch.setattr(np, "argsort", argsort)
        monkeypatch.setattr(WindowStore, "sorted_run", sorted_run)
        monkeypatch.setattr(WindowStore, "probe", probe)
        module.enqueue(Shipment(1, 10.0, 10.5, batch))
        run_pass(module, 20.0)
        monkeypatch.undo()

        assert not module.has_work and blocks
        window = len(module.store.sorted_run()[0])
        assert window > 10 * max(blocks)  # a sort of a window would show
        assert not [s for s in sorts if s[2]], "sorted_run sorted"
        wide = [n for dtype, n, _ in sorts if dtype.itemsize > 2]
        assert wide and max(wide) <= max(blocks)
        assert {dtype for dtype, _n, _ in sorts if dtype.itemsize > 2} == {
            np.dtype(np.uint64)  # run keys; labels never sort at 64 bits
        }
        assert [dtype for dtype, _n, _ in sorts if dtype.itemsize <= 2]


class TestOneStore:
    def test_a_pass_hashes_sorts_and_probes_each_stream_once(self, geometry, monkeypatch):
        """A slave owning 30 partition-groups (``npart=60``, two slaves)
        keeps them in one store: a pass hashes each stream's arrivals
        once, sorts them by mini-group once, and probes the store once —
        not per partition-group."""
        import repro.core.hashing as hashing
        import repro.core.join_module as join_module
        import repro.core.partition_group as partition_group
        from repro.core.hashing import partition_of
        from repro.data.tuples import TupleBatch

        module, metrics = make_module(geometry, npart=60, collect_pairs=True)
        for pid in range(1, 60, 2):
            module.extract_partition(pid)
        hashed, sorted_, probes = [], [], []

        def spy(log, real):
            def counted(first, *args, **kwargs):
                log.append(len(first))
                return real(first, *args, **kwargs)

            return counted

        for where in (hashing, partition_group):
            monkeypatch.setattr(where, "directory_hash", spy(hashed, where.directory_hash))
        real_sort = join_module.small_int_order
        monkeypatch.setattr(join_module, "small_int_order", spy(sorted_, real_sort))
        real_probe = WindowStore.probe

        def probe(store, sid, probe_ts, *args, **kwargs):
            probes.append(len(probe_ts))
            return real_probe(store, sid, probe_ts, *args, **kwargs)

        monkeypatch.setattr(WindowStore, "probe", probe)
        trace = []
        for epoch in range(3):
            t0, t1 = 2.0 * epoch, 2.0 * (epoch + 1)
            batch = workload_batch(t0, t1, rate=3000.0, seed=epoch)
            batch = batch.select(partition_of(batch.key, 60) % 2 == 0)
            trace.append(batch)
            module.enqueue(Shipment(epoch, t0, t1, batch))
            for log in (hashed, sorted_, probes):
                log.clear()
            run_pass(module, t1)
            arrivals = sorted(len(batch.by_stream(sid)) for sid in (0, 1))
            assert sorted(hashed) == arrivals
            assert sorted(sorted_)[-2:] == arrivals and len(sorted_) <= 3
            assert probes == [len(batch)]
        monkeypatch.undo()
        got = np.concatenate(metrics.pair_chunks())
        expected = naive_window_join(TupleBatch.concat(trace), geometry.window_seconds)
        assert np.array_equal(got[np.lexsort((got[:, 1], got[:, 0]))], expected)



class TestSpliceOnce:
    @staticmethod
    def large_windows():
        """A two-stream module whose windows are more than ten times the
        next batch, and that batch: full and partial blocks of both
        streams in several mini-groups, each partial kind longer than a
        block."""
        geometry = JoinGeometry(
            tuples_per_block=16,
            block_bytes=1024,
            theta_bytes=32 * 1024,
            window_seconds=1000.0,
            fine_tuning=True,
            tuple_bytes=64,
        )
        module, metrics = make_module(geometry, npart=4, collect_pairs=True)
        wl = TwoStreamWorkload.poisson_bmodel(RngRegistry(0), 1500.0, 0.7, 50_000)
        before = wl.generate(0.0, 10.0)
        module.enqueue(Shipment(0, 0.0, 10.0, before))
        process_all(module)
        assert all(g.n_mini_groups > 1 for g in module.groups.values())
        batch = wl.generate(10.0, 10.5)
        assert sum(g.n_tuples for g in module.groups.values()) > 10 * len(batch)
        return module, metrics, before, batch

    def test_a_pass_copies_each_run_once(self, monkeypatch):
        """Over windows much larger than its blocks, one two-stream pass
        with full and partial blocks in several mini-groups: ``_merged``
        copies the run once, and the pass's pairs are the oracle's."""
        import repro.core.join_module as join_module
        import repro.core.partition_group as partition_group
        from repro.data.tuples import TupleBatch

        module, metrics, before, batch = self.large_windows()
        store, tpb = module.store, module.geometry.tuples_per_block
        seen = np.concatenate(metrics.pair_chunks())
        copies, probes, kinds = [], [], []
        real_merged, real_probe = partition_group._merged, WindowStore.probe
        real_join = join_module.join_kinds

        def merged(old, new):
            copies.append(old is store._run)
            return real_merged(old, new)

        def probe(store, sid, probe_ts, *args, **kwargs):
            probes.append(len(probe_ts))
            return real_probe(store, sid, probe_ts, *args, **kwargs)

        def join_kinds(store, blocks, collect_pairs):
            kinds.extend(len(block[0]) for block in blocks)
            return real_join(store, blocks, collect_pairs)

        monkeypatch.setattr(partition_group, "_merged", merged)
        monkeypatch.setattr(WindowStore, "probe", probe)
        monkeypatch.setattr(join_module, "join_kinds", join_kinds)
        module.enqueue(Shipment(1, 10.0, 10.5, batch))
        run_pass(module, 20.0)
        monkeypatch.undo()

        assert not module.has_work
        # Full and partial kinds of both streams, each partial kind more
        # than a block: partial blocks of several mini-groups.
        assert len(kinds) == 4 and min(kinds) > tpb
        assert probes == [sum(kinds)]
        assert copies == [True]
        got = np.concatenate(metrics.pair_chunks())
        got = got[~np.isin(got[:, 0] << 32 | got[:, 1], seen[:, 0] << 32 | seen[:, 1])]
        trace = TupleBatch.concat([before, batch])
        every = naive_window_join(trace, module.geometry.window_seconds)
        # The pass's pairs: those with a member in its batch.
        fresh = np.isin(every[:, 0], batch.by_stream(0).seq) | np.isin(
            every[:, 1], batch.by_stream(1).seq
        )
        assert np.array_equal(got[np.lexsort((got[:, 1], got[:, 0]))], every[fresh])
        assert fresh.any()

    def test_one_merge_and_one_search_per_pass(self, monkeypatch):
        """The same pass merges its rows into the run once and searches
        the run for keys at most twice: the merge's own search, and one
        for the first rows of the keys the run held before (tuning reads
        bucket bounds, one key at a time)."""
        import repro.core.partition_group as partition_group

        module, _metrics, _before, batch = self.large_windows()
        # Haystacks this long are runs (a stream's own, where it has one).
        run_sized = 4 * len(batch)
        merges, searches = [], []
        real_merged, real_search = partition_group._merged, np.searchsorted

        def merged(old, new):
            if len(old[0]) > run_sized:
                merges.append(len(new[0]))
            return real_merged(old, new)

        def searchsorted(a, v, *args, **kwargs):
            if np.size(a) > run_sized and np.ndim(v):
                searches.append(np.size(v))
            return real_search(a, v, *args, **kwargs)

        monkeypatch.setattr(partition_group, "_merged", merged)
        monkeypatch.setattr(np, "searchsorted", searchsorted)
        module.enqueue(Shipment(1, 10.0, 10.5, batch))
        run_pass(module, 20.0)
        monkeypatch.undo()

        assert not module.has_work
        assert merges == [len(batch)]
        assert 1 <= len(searches) <= 2
        assert searches[0] == len(batch)


class TestNWayPlan:
    def test_no_n_way_retire_reads_the_store(self, monkeypatch):
        """A three-stream pass finds its composites as it is planned, as
        a two-stream one finds its pairs: retiring a probe unit reads no
        run of the store."""
        geometry = JoinGeometry(
            tuples_per_block=4,
            block_bytes=256,
            theta_bytes=768,
            window_seconds=3.0,
            fine_tuning=True,
            tuple_bytes=64,
            n_streams=3,
        )
        module, metrics = make_module(geometry, npart=2, collect_pairs=True)
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(11), 30.0, 0.7, 40, n_streams=3
        )
        reads, probing = [], [False]
        real_sorted_run = WindowStore.sorted_run

        def sorted_run(store):
            if probing[0]:
                reads.append(store)
            return real_sorted_run(store)

        monkeypatch.setattr(WindowStore, "sorted_run", sorted_run)
        for epoch in range(6):
            t0, t1 = float(epoch), float(epoch + 1)
            module.enqueue(Shipment(epoch, t0, t1, wl.generate(t0, t1)))
            while module.has_work:
                for step in module.steps():
                    for i in range(len(step.costs)):
                        probing[0] = step.kind == "probe"
                        step.retire(i, i + 1, np.array([t1]))
                        probing[0] = False
        assert metrics.outputs_emitted > 0
        assert reads == []


class TestConcurrentFiling:
    """The comm process files shipments between the steps of the join
    process's pass (every backend: both run on the node's one kernel):
    the mini-buffers must tolerate it."""

    def test_enqueue_races_drain_without_losing_updates(self, geometry):
        def unit_by_unit(step, file):
            emit = np.array([100.0])
            for i in range(len(step.costs)):
                step.retire(i, i + 1, emit)
                file()

        self.stress(geometry, unit_by_unit)

    def test_enqueue_races_a_retire_in_progress(self, geometry):
        """The same interleaving against whole-step retires, as the wall
        backends drive a pass: one ``retire`` moves many blocks' worth of
        ``_pending_bytes`` while the comm process keeps filing."""

        def whole_steps(step, file):
            n = len(step.costs)
            step.retire(0, n, np.full(n, 100.0))
            file()

        self.stress(geometry, whole_steps)

    @staticmethod
    def stress(geometry, retire):
        """Drain passes until everything filed is processed, filing the
        next shipment each time *retire* calls back — between two steps
        or two units, wherever a pass may be."""
        module, metrics = make_module(geometry, npart=4)
        from repro.data.tuples import TupleBatch

        n_shipments = 1000
        batch = workload_batch(0.0, 0.2, rate=100.0)
        assert len(batch)
        # Each shipment is the same batch shifted one epoch further on,
        # as a master would send it.
        shipments = iter(
            [
                Shipment(
                    epoch,
                    epoch * 0.2,
                    (epoch + 1) * 0.2,
                    TupleBatch(
                        batch.ts + epoch * 0.2,
                        batch.key,
                        batch.seq + epoch * len(batch),
                        batch.stream,
                    ),
                )
                for epoch in range(n_shipments)
            ]
        )

        def file() -> None:
            shipment = next(shipments, None)
            if shipment is not None:
                module.enqueue(shipment)

        file()
        while module.has_work:
            for step in module.steps():
                retire(step, file)
        assert next(shipments, None) is None, "the filing outran the passes"
        # A lost update of the byte counter, or a batch dropped by a
        # pass that missed a filing, would break these.
        assert metrics.tuples_processed == n_shipments * len(batch)
        assert module.pending_bytes == 0
        assert not module.has_work
