"""Tests for the admin/health HTTP endpoint (repro.obs.admin)."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.config import ObservabilityConfig, SystemConfig
from repro.core.cluster import build_cluster
from repro.core.system import JoinSystem
from repro.net.sim_transport import SimTransport
from repro.obs.admin import (
    ACTIVE_SERVERS,
    STATUS_SCHEMA_VERSION,
    AdminServer,
    cluster_status,
)
from repro.obs.metrics import render_prometheus
from repro.runtime.sim import SimRuntime
from repro.simul.kernel import Simulator

#: Every key the /status document guarantees (schema v1).  A golden
#: contract: removing or renaming one is a breaking schema change and
#: must bump STATUS_SCHEMA_VERSION.
STATUS_KEYS_V1 = {
    "schema",
    "backend",
    "t",
    "run_seconds",
    "acting_master",
    "epochs",
    "reorgs",
    "nodes",
    "partition_owners",
    "replication_bytes",
    "degraded",
    "failures",
    "recovery_latencies",
}


def _get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def _tiny_cluster():
    cfg = SystemConfig.paper_defaults().scaled(0.02)
    sim = Simulator()
    runtime = SimRuntime(sim)
    transport = SimTransport(sim, cfg.network, cfg.tuple_bytes)
    return cfg, build_cluster(cfg, runtime, transport), runtime


class TestAdminServer:
    def test_routes_and_ephemeral_port(self):
        server = AdminServer(
            lambda: {"schema": STATUS_SCHEMA_VERSION, "hello": 1},
            lambda: "# TYPE swjoin_x counter\nswjoin_x_total 1\n",
        )
        try:
            assert server.port > 0
            assert server in ACTIVE_SERVERS

            status, ctype, body = _get(f"{server.url}/health")
            health = json.loads(body)
            assert status == 200 and ctype == "application/json"
            assert health["status"] == "ok"
            assert health["uptime_s"] >= 0.0

            status, _, body = _get(f"{server.url}/status")
            assert status == 200
            assert json.loads(body) == {
                "schema": STATUS_SCHEMA_VERSION,
                "hello": 1,
            }

            status, ctype, body = _get(f"{server.url}/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"swjoin_x_total 1" in body

            status, _, body = _get(f"{server.url}/")
            assert set(json.loads(body)["endpoints"]) == {
                "/health",
                "/status",
                "/metrics",
            }

            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/nope")
            assert err.value.code == 404
        finally:
            server.close()
        assert server not in ACTIVE_SERVERS

    def test_handler_exception_returns_500_not_crash(self):
        def broken():
            raise RuntimeError("kaboom")

        server = AdminServer(broken, lambda: "")
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/status")
            assert err.value.code == 500
            assert b"kaboom" in err.value.read()
            # The server survives a handler error.
            status, _, _ = _get(f"{server.url}/health")
            assert status == 200
        finally:
            server.close()

    def test_close_is_idempotent(self):
        server = AdminServer(lambda: {}, lambda: "")
        server.close()
        server.close()


class TestClusterStatus:
    def test_status_schema_golden(self):
        cfg, cluster, runtime = _tiny_cluster()
        doc = cluster_status(cfg, cluster, runtime.now, "sim")
        assert set(doc) == STATUS_KEYS_V1
        assert doc["schema"] == STATUS_SCHEMA_VERSION
        assert doc["backend"] == "sim"
        json.dumps(doc)  # the document must be pure JSON

        roles = {n["role"] for n in doc["nodes"]}
        assert roles == {"master", "collector", "slave"}
        assert len(doc["nodes"]) == 2 + cfg.num_slaves
        assert doc["acting_master"] == cluster.master.comm.node_id
        for row in doc["nodes"]:
            assert row["alive"] is True
        slave_rows = [n for n in doc["nodes"] if n["role"] == "slave"]
        assert {
            "node", "role", "alive", "active", "partitions", "occupancy"
        } <= set(slave_rows[0])
        # Every partition is owned by some slave before the run starts.
        assert len(doc["partition_owners"]) == cfg.npart
        assert sum(n["partitions"] for n in slave_rows) == cfg.npart
        assert doc["degraded"] is False
        assert doc["failures"] == []

    def test_status_over_http_end_to_end(self):
        cfg, cluster, runtime = _tiny_cluster()
        server = AdminServer(
            lambda: cluster_status(cfg, cluster, runtime.now, "sim"),
            lambda: render_prometheus(cluster.node_metrics()),
        )
        try:
            _, _, body = _get(f"{server.url}/status")
            assert set(json.loads(body)) == STATUS_KEYS_V1
        finally:
            server.close()


class TestLiveRunEndpoint:
    def test_thread_backend_serves_admin_during_run(self):
        """An admin_port=0 thread run serves /health and /status while
        in flight (discovered via ACTIVE_SERVERS)."""
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.02)
            .with_(
                backend="thread",
                time_scale=0.05,
                run_seconds=10.0,
                warmup_seconds=2.0,
                obs=ObservabilityConfig(admin_port=0),
            )
        )
        before = list(ACTIVE_SERVERS)
        results = {}

        def drive():
            results["result"] = JoinSystem(cfg).run()

        thread = threading.Thread(target=drive)
        thread.start()
        try:
            deadline = time.monotonic() + 10.0
            server = None
            while time.monotonic() < deadline and server is None:
                fresh = [s for s in ACTIVE_SERVERS if s not in before]
                server = fresh[0] if fresh else None
                time.sleep(0.01)
            assert server is not None, "admin server never came up"
            status, _, body = _get(f"{server.url}/status")
            assert status == 200
            doc = json.loads(body)
            assert doc["backend"] == "thread"
            assert set(doc) == STATUS_KEYS_V1
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert "result" in results
        # The run closed its server on the way out.
        assert all(s in before for s in ACTIVE_SERVERS)
        # The counters' typed view came back with the result.
        assert results["result"].node_metrics

    def test_status_stays_coherent_through_master_failover(self):
        """Probe /health, /status and /metrics continuously while the
        master is killed and the standby elects itself: every sampled
        document must name a coherent acting master (node-row roles and
        liveness agree with ``acting_master``), and the probes must see
        both identities — the master before the kill, the standby after
        the takeover."""
        from repro.core.cluster import MASTER_ID, standby_node_id
        from repro.faults.plan import FaultPlan

        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                backend="thread",
                time_scale=0.25,
                npart=12,
                rate=400.0,
                num_slaves=3,
                run_seconds=16.0,
                warmup_seconds=6.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
                standby=True,
                replication="checkpoint+log",
                faults=FaultPlan.parse(["crash:master@5s"]),
                obs=ObservabilityConfig(admin_port=0),
            )
        )
        standby_id = standby_node_id(cfg)
        before = list(ACTIVE_SERVERS)
        results = {}

        def drive():
            results["result"] = JoinSystem(cfg).run()

        thread = threading.Thread(target=drive)
        thread.start()
        docs = []
        try:
            deadline = time.monotonic() + 10.0
            server = None
            while time.monotonic() < deadline and server is None:
                fresh = [s for s in ACTIVE_SERVERS if s not in before]
                server = fresh[0] if fresh else None
                time.sleep(0.01)
            assert server is not None, "admin server never came up"
            status, _, _ = _get(f"{server.url}/health")
            assert status == 200
            _, _, body = _get(f"{server.url}/metrics")
            assert b"# TYPE" in body
            while thread.is_alive():
                try:
                    _, _, body = _get(f"{server.url}/status", timeout=2.0)
                except urllib.error.HTTPError:
                    # Transient 500: the probe raced a coordinator
                    # mutation mid-snapshot.  The server survives it.
                    time.sleep(0.01)
                    continue
                except OSError:
                    break  # run finished, server closed mid-probe
                docs.append(json.loads(body))
                time.sleep(0.01)
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert not results["result"].degraded

        assert docs, "no status documents sampled during the run"
        seen = set()
        for doc in docs:
            assert set(doc) == STATUS_KEYS_V1
            acting = doc["acting_master"]
            assert acting in (MASTER_ID, standby_id)
            seen.add(acting)
            rows = {n["node"]: n for n in doc["nodes"]}
            master_row, standby_row = rows[MASTER_ID], rows[standby_id]
            if acting == MASTER_ID:
                # Election not finished: the master's own (possibly
                # last-known) state answers and must read alive.
                assert master_row["alive"] is True
                assert standby_row["role"] == "standby"
            else:
                assert master_row["alive"] is False
                assert standby_row["role"] == "acting-master"
        assert seen == {MASTER_ID, standby_id}, (
            f"probes saw only {seen}: expected samples both before the "
            "kill and after the takeover"
        )

    def test_crashed_master_process_stops_serving(self):
        """On the process backend the admin endpoint lives in the
        master's process: /health answers until the master crashes,
        then the port refuses connections while the standby carries
        the run on — a dead master never serves a frozen /status."""
        import socket

        from repro.faults.plan import FaultPlan

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        cfg = (
            SystemConfig.paper_defaults()
            .scaled(0.01)
            .with_(
                backend="process",
                time_scale=0.25,
                npart=12,
                rate=400.0,
                num_slaves=3,
                run_seconds=16.0,
                warmup_seconds=6.0,
                window_seconds=3.0,
                reorg_epoch=4.0,
                standby=True,
                replication="checkpoint+log",
                faults=FaultPlan.parse(["crash:master@5s"]),
                obs=ObservabilityConfig(admin_port=port),
            )
        )
        results = {}

        def drive():
            results["result"] = JoinSystem(cfg).run()

        thread = threading.Thread(target=drive)
        thread.start()
        url = f"http://127.0.0.1:{port}/health"
        answered = refused_while_running = False
        try:
            deadline = time.monotonic() + 60.0
            while thread.is_alive() and time.monotonic() < deadline:
                try:
                    status, _, _ = _get(url, timeout=2.0)
                    answered = answered or status == 200
                except OSError:
                    if answered:
                        refused_while_running = thread.is_alive()
                        break
                time.sleep(0.01)
        finally:
            thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert answered, "/health never answered before the crash"
        assert refused_while_running, "/health kept answering after the crash"
        [crash] = results["result"].injected_faults
        assert (crash["action"], crash["node"]) == ("crash", 0)
        assert not results["result"].degraded
