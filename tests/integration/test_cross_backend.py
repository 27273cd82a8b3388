"""Cross-backend conformance: every runtime backend — the DES kernel on
simulated time, the same kernel on the wall clock, OS processes, TCP
workers — joins the exact same pairs as the oracle for a shared trace.

Timing-dependent metrics (delays, comm times) differ across backends by
construction; the *results* must not.
"""

import threading

import numpy as np
import pytest

from repro import JoinSystem, SystemConfig
from repro.errors import ConfigError
from repro.reference import naive_window_join
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
        thread_result = JoinSystem(
            cfg.with_(backend="thread", time_scale=0.01),
            collect_pairs=True,
            workload=TraceReplayer(trace),
        ).run()
        thread_pairs = sorted_pairs([thread_result.pairs])

        oracle = naive_window_join(trace, cfg.window_seconds)
        assert np.array_equal(sim_pairs, oracle)
        assert np.array_equal(thread_pairs, oracle)

    def test_thread_collector_consistency(self, shared_setup):
        cfg, trace = shared_setup
        result = JoinSystem(
            cfg.with_(backend="thread", time_scale=0.01),
            workload=TraceReplayer(trace),
        ).run()
        assert result.collector_delays.count == result.delays.count

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
            prefix = {"thread": "proc", "process": "proc", "tcp": "tcp"}.get(
                backend
            )
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


class TestRoutingConformance:
    """The routing baselines run on the one cluster, so on every
    backend: sim, thread, process and tcp runs of one trace under ATR
    or CTR each join exactly the oracle's pairs, and the collector's
    merged view equals the slaves'."""

    @pytest.mark.parametrize("routing", ["atr", "ctr"])
    def test_routing_matches_oracle_on_every_backend(self, routing):
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
                routing=routing,
            )
        )
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(11), cfg.rate, cfg.b_skew, 10_000
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        oracle = naive_window_join(trace, cfg.window_seconds)
        assert len(oracle), "degenerate workload: oracle joined nothing"

        for backend in ("sim", "thread", "process", "tcp"):
            result = JoinSystem(
                cfg.with_(backend=backend),
                collect_pairs=True,
                workload=TraceReplayer(trace),
            ).run()
            assert np.array_equal(sorted_pairs([result.pairs]), oracle), (
                f"{routing} on the {backend} backend diverged from the "
                f"oracle ({len(result.pairs)} vs {len(oracle)} pairs)"
            )
            assert_slave_views_agree(result)
            merged, collected = result.delays, result.collector_delays
            assert collected.count == merged.count, backend
            assert collected.histogram.tolist() == merged.histogram.tolist()
            assert result.tuples_generated == len(trace), backend


class TestLateStart:
    """Nothing waits between the last node's "ready" and modeled t=0,
    so a node may start late.  That is harmless: the protocol is
    message-driven, and a late start looks like a scheduler stall."""

    @pytest.mark.parametrize("backend", ["process", "tcp"])
    def test_slave_starting_two_epochs_late_matches_oracle(
        self, backend, monkeypatch
    ):
        from repro.core.cluster import slave_node_id
        from repro.core.host import cluster_node_ids
        from repro.runtime.process import ProcessBackend

        # No fault plan: no detection timeout is armed.
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
                backend=backend,
            )
        )
        delay = 2 * cfg.dist_epoch * cfg.time_scale
        timers: list[threading.Timer] = []
        barrier = ProcessBackend._start_barrier

        def late_barrier(self, controls, inbox, local_ids):
            victim = controls[slave_node_id(0)]
            send = victim.send

            def late_send(obj):
                if obj[0] != "start":
                    return send(obj)
                # Off the broadcast loop: only this one node is late.
                timer = threading.Timer(delay, send, (obj,))
                timers.append(timer)
                timer.start()

            monkeypatch.setattr(victim, "send", late_send)
            return barrier(self, controls, inbox, local_ids)

        monkeypatch.setattr(ProcessBackend, "_start_barrier", late_barrier)
        reported: list[int] = []
        collect = ProcessBackend._collect

        def spy_collect(self, *args):
            payloads = collect(self, *args)
            reported.extend(payloads)
            return payloads

        monkeypatch.setattr(ProcessBackend, "_collect", spy_collect)
        wl = TwoStreamWorkload.poisson_bmodel(
            RngRegistry(5), cfg.rate, cfg.b_skew, 10_000
        )
        trace = wl.generate(0.0, cfg.run_seconds - 3 * cfg.dist_epoch)
        oracle = naive_window_join(trace, cfg.window_seconds)
        assert len(oracle), "degenerate workload: oracle joined nothing"

        result = JoinSystem(
            cfg, collect_pairs=True, workload=TraceReplayer(trace)
        ).run()
        for timer in timers:
            timer.join()
        assert len(timers) == 1, "the slave's start was never delayed"
        assert np.array_equal(sorted_pairs([result.pairs]), oracle)
        assert sorted(reported) == sorted(cluster_node_ids(cfg))
        assert not result.faults and not result.degraded


class TestBackendSelection:
    def test_unknown_backend_lists_available(self):
        with pytest.raises(ConfigError, match="sim.*thread"):
            cfg = SystemConfig.paper_defaults().with_(backend="quantum")
            JoinSystem(cfg).run()

    def test_thread_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        with pytest.raises(ConfigError, match="crash"):
            cfg = SystemConfig.paper_defaults().with_(
                backend="thread",
                faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
            )
            JoinSystem(cfg).run()

    def test_process_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        with pytest.raises(ConfigError, match="crash"):
            cfg = SystemConfig.paper_defaults().with_(
                backend="process",
                faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
            )
            JoinSystem(cfg).run()

    def test_tcp_backend_rejects_non_crash_faults(self):
        from repro.faults.plan import FaultPlan, parse_fault

        with pytest.raises(ConfigError, match="crash"):
            cfg = SystemConfig.paper_defaults().with_(
                backend="tcp",
                faults=FaultPlan(messages=(parse_fault("drop:2->0@3"),)),
            )
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
        from repro.config import ObservabilityConfig
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
                obs=ObservabilityConfig(trace_memory=True),
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

        # Every backend traces the injection itself, ahead of the
        # master's detection of it.
        victim_faults = [
            (r["action"], i)
            for i, r in enumerate(result.trace)
            if r["kind"] == "fault" and r["target"] == victim
        ]
        crashes = [i for action, i in victim_faults if action == "crash"]
        detects = [i for action, i in victim_faults if action == "detect"]
        assert len(crashes) == 1
        assert detects and crashes[0] < detects[0]

        # Every backend reports a crash alike: the victim's own tracer
        # numbered its crash row, its pre-crash counters came back, and
        # the injection record holds exactly that crash.
        assert isinstance(result.trace[crashes[0]]["seq"], int)
        assert result.slaves[1]["tuples_processed"] > 0
        [crash] = result.injected_faults
        assert (crash["action"], crash["node"], crash["info"]) == (
            "crash", victim, 5.0,
        )

    @pytest.mark.parametrize("backend", ["sim", "thread", "process", "tcp"])
    def test_crash_at_run_end_is_rejected(self, backend):
        from repro.faults.plan import FaultPlan

        with pytest.raises(ConfigError, match="crash:1@16s"):
            cfg = SystemConfig.paper_defaults().scaled(0.01).with_(
                run_seconds=16.0,
                warmup_seconds=6.0,
                backend=backend,
                faults=FaultPlan.parse(["crash:1@16s"]),
            )
            JoinSystem(cfg).run()


class TestProcessFaults:
    def test_node_closing_without_a_result_fails_the_run(self, monkeypatch):
        # A node that drops its result and closes its control link
        # fails the run — a planned crash victim too, since every
        # victim reports what it recorded before its crash.
        from repro.core.cluster import slave_node_id
        from repro.faults.plan import FaultPlan
        from repro.runtime import process

        victim = slave_node_id(1)
        real_run_node = process.run_node

        def run_node(control, connect, series_prefix):
            def connect_muted():
                job, peers = connect()
                if job.node_id == victim:
                    send = control.send
                    control.send = (
                        lambda msg: None if msg[0] == "result" else send(msg)
                    )
                return job, peers

            real_run_node(control, connect_muted, series_prefix)

        # Patched before the fork: the children inherit it.
        monkeypatch.setattr(process, "run_node", run_node)
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
                faults=FaultPlan.parse(["crash:1@5s"]),
            )
        )
        with pytest.raises(
            RuntimeError, match=f"node {victim} died without reporting"
        ):
            JoinSystem(cfg).run()

    def test_crash_fault_kills_process_and_master_recovers(self):
        # The victim's process fail-stops itself at t=5; its peers see
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
        [crash] = result.injected_faults
        assert (crash["action"], crash["node"], crash["info"]) == (
            "crash", victim, 5.0,
        )
        # Stamped when the victim's crash process really fired: at the
        # planned time or a little after.
        assert 4.99 < crash["t"] < cfg.run_seconds
        assert [f["slave"] for f in result.faults] == [victim]
        assert victim in result.master["dead_slaves"]
        # Every partition was reassigned off the dead slave.
        assert victim not in set(result.master["partition_owners"].values())
