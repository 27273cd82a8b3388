"""Cross-backend conformance: every runtime backend — DES kernel,
threads, OS processes, TCP workers — joins the exact same pairs as the
oracle for a shared trace.

Timing-dependent metrics (delays, comm times) differ across backends by
construction; the *results* must not.
"""

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.core.cluster import build_cluster
from repro.errors import ConfigError
from repro.net.thread_transport import ThreadTransport
from repro.reference import naive_window_join
from repro.runtime.thread import ThreadRuntime
from repro.simul.rng import RngRegistry
from repro.workload.generator import TwoStreamWorkload
from repro.workload.traces import TraceReplayer
from tests.conftest import assert_slave_views_agree

#: Independent workloads for the four-way conformance sweep.
CONFORMANCE_SEEDS = (5, 11, 23)


@pytest.fixture(scope="module")
def shared_setup():
    cfg = (
        SystemConfig.paper_defaults()
        .scaled(0.01)
        .with_(
            num_slaves=2,
            npart=8,
            rate=150.0,
            run_seconds=10.0,
            warmup_seconds=2.0,
            window_seconds=3.0,
            reorg_epoch=4.0,
        )
    )
    wl = TwoStreamWorkload.poisson_bmodel(
        RngRegistry(5), cfg.rate, cfg.b_skew, 10_000
    )
    trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
    return cfg, trace


def sorted_pairs(chunks):
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(chunks)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class TestCrossBackend:
    def test_thread_backend_matches_sim_and_oracle(self, shared_setup):
        cfg, trace = shared_setup

        sim_result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        sim_pairs = sorted_pairs([sim_result.pairs])

        # Run fast: 1 virtual second = 10 ms wall (100x speedup).
        runtime = ThreadRuntime(time_scale=0.01)
        transport = ThreadTransport(cfg.tuple_bytes, time_scale=0.01)
        cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=TraceReplayer(trace),
            collect_pairs=True,
        )
        for name, gen in cluster.processes():
            runtime.spawn(gen, name=name)
        runtime.join_all(timeout=120.0)
        thread_pairs = sorted_pairs(
            [c for m in cluster.slave_metrics for c in m.pair_chunks()]
        )

        oracle = naive_window_join(trace, cfg.window_seconds)
        assert np.array_equal(sim_pairs, oracle)
        assert np.array_equal(thread_pairs, oracle)

    def test_thread_collector_consistency(self, shared_setup):
        cfg, trace = shared_setup
        runtime = ThreadRuntime(time_scale=0.01)
        transport = ThreadTransport(cfg.tuple_bytes, time_scale=0.01)
        cluster = build_cluster(
            cfg, runtime, transport, workload=TraceReplayer(trace)
        )
        for name, gen in cluster.processes():
            runtime.spawn(gen, name=name)
        runtime.join_all(timeout=120.0)
        local = sum(m.delays.count for m in cluster.slave_metrics)
        assert cluster.collector.delays.count == local


    def test_overrun_thread_backend_still_matches_oracle(self):
        """Compress the clock until the slaves cannot keep up: shipments
        are filed into mini-buffers that a backlogged join pass is
        draining at that moment.  Regression for the ``deque mutated
        during iteration`` crash — and the early expiry a lost watermark
        update could cause — on the wall-clock backends."""
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.05)
            .with_(
                num_slaves=4,
                npart=8,
                rate=4000.0,
                run_seconds=40.0,
                warmup_seconds=10.0,
                window_seconds=20.0,
                backend="thread",
                time_scale=0.005,
            )
        )
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(7), cfg.rate, cfg.b_skew, 10_000_000
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        # 0.2 s of schedule for ~270k tuples: only a backlog explains it.
        assert result.tuples_generated == len(trace)
        oracle = naive_window_join(trace, cfg.window_seconds)
        assert len(oracle), "degenerate workload: oracle joined nothing"
        assert np.array_equal(sorted_pairs([result.pairs]), oracle)


class TestFourWayConformance:
    """sim, thread, process and tcp runs of the same trace must produce
    identical joined-output multisets — equal to each other and to the
    ``naive_window_join`` oracle — across several seeds."""

    @pytest.mark.parametrize("seed", CONFORMANCE_SEEDS)
    def test_all_backends_match_each_other_and_oracle(self, seed):
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                num_slaves=2,
                npart=8,
                rate=150.0,
                run_seconds=10.0,
                warmup_seconds=2.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
                time_scale=0.02,
            )
        )
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(seed), cfg.rate, cfg.b_skew, 10_000
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        oracle = naive_window_join(trace, cfg.window_seconds)
        assert len(oracle), "degenerate workload: oracle joined nothing"

        produced = {}
        for backend in ("sim", "thread", "process", "tcp"):
            result = JoinSystem(
                cfg.with_(backend=backend),
                collect_pairs=True,
                workload=TraceReplayer(trace),
            ).run()
            produced[backend] = sorted_pairs([result.pairs])
            assert_slave_views_agree(result)
            prefix = {"process": "proc", "tcp": "tcp"}.get(backend)
            if prefix is not None:
                # A frame is counted when written, then when read.
                views = result.node_metrics
                for snap in result.slaves:
                    node = snap["node"]
                    sent = views[node][f"{prefix}.tx_frames.to_n0"]["value"]
                    read = views[0][f"{prefix}.rx_frames.from_n{node}"]["value"]
                    assert sent >= read > 0, (backend, node, sent, read)

        for backend, pairs in produced.items():
            assert np.array_equal(pairs, oracle), (
                f"{backend} backend diverged from the oracle "
                f"({len(pairs)} vs {len(oracle)} pairs, seed {seed})"
            )
        assert np.array_equal(produced["sim"], produced["process"])
        assert np.array_equal(produced["sim"], produced["thread"])
        assert np.array_equal(produced["sim"], produced["tcp"])


class TestBackendSelection:
    def test_unknown_backend_lists_available(self):
        cfg = SystemConfig.paper_defaults().with_(backend="quantum")
        with pytest.raises(ConfigError, match="sim.*thread"):
            JoinSystem(cfg).run()

    def test_every_registered_backend_supports_observability(self):
        """All shipped backends declare the observability capability
        (wall backends trace since the distributed-trace plane)."""
        from repro.core.system import available_backends, get_backend

        for name in available_backends():
            assert getattr(get_backend(name), "supports_observability", False), (
                f"backend {name!r} does not declare supports_observability"
            )

    def test_backend_without_trace_shipping_is_rejected(self):
        """A backend that cannot ship traces must fail loudly, not
        silently swallow the requested observability plane."""
        from repro.config import ObservabilityConfig
        from repro.core.system import register_backend

        class _BlindBackend:
            name = "blind"

            def run(self, cfg, collect_pairs=False, workload=None):
                raise AssertionError("must be rejected before run()")

        register_backend("blind", _BlindBackend)
        try:
            cfg = SystemConfig.paper_defaults().with_(
                backend="blind", obs=ObservabilityConfig(trace_memory=True)
            )
            with pytest.raises(ConfigError, match="observability"):
                JoinSystem(cfg).run()
        finally:
            from repro.core.system import _BACKEND_FACTORIES

            _BACKEND_FACTORIES.pop("blind", None)

    def test_thread_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        cfg = SystemConfig.paper_defaults().with_(
            backend="thread",
            faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
        )
        with pytest.raises(ConfigError, match="crash"):
            JoinSystem(cfg).run()

    def test_process_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        cfg = SystemConfig.paper_defaults().with_(
            backend="process",
            faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
        )
        with pytest.raises(ConfigError, match="crash"):
            JoinSystem(cfg).run()

    def test_tcp_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        cfg = SystemConfig.paper_defaults().with_(
            backend="tcp",
            faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
        )
        with pytest.raises(ConfigError, match="crash"):
            JoinSystem(cfg).run()

    def test_tcp_backend_rejects_crash_on_remote_node(self):
        # The launcher SIGKILLs crash victims, so a victim served by a
        # remote `swjoin worker` is out of reach — fail fast, before
        # any connection is attempted.
        from repro.faults.plan import FaultPlan, parse_fault

        cfg = SystemConfig.paper_defaults().with_(
            backend="tcp",
            tcp_peers=((2, "10.0.0.9:7000"),),  # slave 0 lives remotely
            faults=FaultPlan(crashes=(parse_fault("crash:0@5s"),)),
        )
        with pytest.raises(ConfigError, match="remote"):
            JoinSystem(cfg).run()

    def test_tcp_backend_rejects_peers_outside_the_cluster(self):
        cfg = SystemConfig.paper_defaults().with_(
            num_slaves=2,  # nodes 0..3
            backend="tcp",
            tcp_peers=((9, "10.0.0.9:7000"),),
        )
        with pytest.raises(ConfigError, match="outside this cluster"):
            JoinSystem(cfg).run()


class TestLosslessRecoveryConformance:
    """Crash + checkpoint+log replication on every backend: each one
    must restore the victim's partitions from the backup slave and
    produce the crash-free oracle's exact pair multiset, undegraded."""

    @pytest.mark.parametrize("backend", ["sim", "thread", "process", "tcp"])
    def test_crash_with_replication_matches_oracle(self, backend):
        from repro.core.cluster import slave_node_id
        from repro.faults.plan import FaultPlan

        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                num_slaves=3,
                npart=12,
                rate=400.0,
                run_seconds=16.0,
                warmup_seconds=6.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
                backend=backend,
                time_scale=0.05,
                replication="checkpoint+log",
                faults=FaultPlan.parse(["crash:1@5s"]),
            )
        )
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(1), cfg.rate, cfg.b_skew, cfg.key_domain
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        oracle = naive_window_join(trace, cfg.window_seconds)
        assert len(oracle), "degenerate workload: oracle joined nothing"

        result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        victim = slave_node_id(1)
        assert [f["slave"] for f in result.faults] == [victim]
        assert result.faults[0]["lost_pids"] == ()
        assert not result.degraded
        assert np.array_equal(sorted_pairs([result.pairs]), oracle)


class TestProcessFaults:
    def test_crash_fault_kills_process_and_master_recovers(self):
        # The victim's OS process is SIGKILLed at t=5; its peers see
        # socket EOF -> NodeDown, and the PR 3 detection/recovery path
        # runs unchanged: the master fences the dead slave and the run
        # completes degraded instead of wedging.
        from repro.core.cluster import slave_node_id
        from repro.faults.plan import FaultPlan, parse_fault

        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                num_slaves=3,
                npart=12,
                rate=150.0,
                run_seconds=12.0,
                warmup_seconds=2.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
                backend="process",
                time_scale=0.05,
                faults=FaultPlan(crashes=(parse_fault("crash:1@5s"),)),
            )
        )
        result = JoinSystem(cfg).run()
        victim = slave_node_id(1)
        assert result.degraded
        assert result.injected_faults == [
            {"action": "crash", "node": victim, "t": 5.0, "info": 5.0}
        ]
        assert [f["slave"] for f in result.faults] == [victim]
        assert victim in result.master["dead_slaves"]
        # Every partition was reassigned off the dead slave.
        assert victim not in set(result.master["partition_owners"].values())
