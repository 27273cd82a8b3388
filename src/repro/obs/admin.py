"""Opt-in admin/health HTTP endpoint (``swjoin run --admin-port``).

A tiny threaded HTTP server hosted by whichever OS process runs the
*master* node (the main process on the sim/thread backends, the
master's forked child on the process backend).  It serves live cluster
introspection while a run is in flight:

``/health``
    ``{"status": "ok", "uptime_s": ...}`` — liveness probe.
``/status``
    JSON cluster introspection: node liveness, per-partition ownership
    and occupancy, epoch progress, replication bytes, recovery
    latencies and the degraded flag (``STATUS_SCHEMA_VERSION``).
``/metrics``
    Prometheus text exposition of the counters of every node the
    hosting process runs (all nodes on sim/thread; the master's own on
    the socket backends — the slaves count in other processes and their
    views arrive only with the final result payloads).

The server runs on wall-clock daemon threads and is *read-only*: status
callbacks snapshot master-owned state without mutating it, so an
attached dashboard can never perturb the run.  Requests never touch
the modeled clock; the hosting backend passes ``now_fn`` so ``/status``
can report modeled progress.
"""

from __future__ import annotations

import json
import threading
import time
import typing as t
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.cluster import COLLECTOR_ID, MASTER_ID, standby_node_id

__all__ = [
    "AdminServer",
    "ACTIVE_SERVERS",
    "STATUS_SCHEMA_VERSION",
    "cluster_status",
]

#: Version stamped into every ``/status`` document.
STATUS_SCHEMA_VERSION = 1

#: Servers currently serving, newest last.  Lets tests (and notebooks)
#: discover the ephemeral port of a run started with ``admin_port=0``.
ACTIVE_SERVERS: list["AdminServer"] = []


class AdminServer:
    """Threaded HTTP status server bound to ``127.0.0.1``.

    ``status_fn`` returns the ``/status`` document (a JSON-serializable
    dict); ``metrics_fn`` returns the ``/metrics`` text body.  Both run
    on server threads concurrently with the cluster — they must only
    read.  ``port=0`` binds an ephemeral port (see :attr:`port`).
    """

    def __init__(
        self,
        status_fn: t.Callable[[], dict[str, t.Any]],
        metrics_fn: t.Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
        announce: bool = False,
    ) -> None:
        self.status_fn = status_fn
        self.metrics_fn = metrics_fn
        self._started = time.monotonic()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: t.Any) -> None:
                pass  # never spam the run's stdout per request

            def _reply(
                self, code: int, body: bytes, content_type: str
            ) -> None:
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    route = self.path.split("?", 1)[0].rstrip("/") or "/"
                    if route == "/health":
                        body = json.dumps(
                            {
                                "status": "ok",
                                "uptime_s": server.uptime_s,
                            }
                        ).encode()
                        self._reply(200, body, "application/json")
                    elif route == "/status":
                        body = json.dumps(server.status_fn()).encode()
                        self._reply(200, body, "application/json")
                    elif route == "/metrics":
                        body = server.metrics_fn().encode()
                        self._reply(
                            200, body, "text/plain; version=0.0.4"
                        )
                    elif route == "/":
                        body = json.dumps(
                            {"endpoints": ["/health", "/status", "/metrics"]}
                        ).encode()
                        self._reply(200, body, "application/json")
                    else:
                        self._reply(404, b"not found\n", "text/plain")
                except BrokenPipeError:  # pragma: no cover - client gone
                    pass
                except Exception as exc:  # noqa: BLE001 - must not kill the run
                    detail = f"{type(exc).__name__}: {exc}\n".encode()
                    try:
                        self._reply(500, detail, "text/plain")
                    except OSError:  # pragma: no cover - client gone
                        pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"admin:{self.port}",
            daemon=True,
        )
        ACTIVE_SERVERS.append(self)
        self._thread.start()
        if announce:
            print(f"admin endpoint: {self.url}  (/health /status /metrics)")

    @property
    def port(self) -> int:
        port = self._httpd.server_address[1]
        return int(port)

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host!s}:{self.port}"

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        if self in ACTIVE_SERVERS:
            ACTIVE_SERVERS.remove(self)
            self._httpd.shutdown()
            self._httpd.server_close()


def _slave_row(
    node_id: int, master: t.Any, owned: int, occupancy: float | None
) -> dict[str, t.Any]:
    return {
        "node": node_id,
        "role": "slave",
        "alive": node_id not in master.state.dead,
        "active": node_id in master.state.active,
        "partitions": owned,
        "occupancy": occupancy,
    }


def cluster_status(
    cfg: t.Any,
    cluster: t.Any,
    now_fn: t.Callable[[], float],
    backend: str,
) -> dict[str, t.Any]:
    """The ``/status`` document for a live (or finished) cluster.

    Reads master-owned state only — the slave ids, partition ownership,
    load reports, the dead set, failure records — all of which live in
    the same OS process as the admin server on every backend; the other
    node rows follow from the node ids the config fixes.

    All coordinator state is read through :attr:`Cluster.acting_master`
    so a probe racing a standby election stays coherent: until the
    takeover completes the master's own (last-known) state answers;
    after it, the standby's live mirror does.  ``acting_master`` (the
    node id) says who answered.
    """
    master = cluster.acting_master
    standby = cluster.standby
    took_over = standby is not None and standby.took_over
    mm = master.metrics
    owners: dict[int, int] = dict(master.state.mapping)
    owned_count: dict[int, int] = {}
    for owner in owners.values():
        owned_count[owner] = owned_count.get(owner, 0) + 1

    nodes: list[dict[str, t.Any]] = [
        {"node": MASTER_ID, "role": "master", "alive": not took_over},
        {"node": COLLECTOR_ID, "role": "collector", "alive": True},
    ]
    if cfg.standby:
        nodes.append(
            {
                "node": standby_node_id(cfg),
                "role": "acting-master" if took_over else "standby",
                "alive": True,
            }
        )
    for nid in master.all_slaves:
        report = master.latest_reports.get(nid)
        occupancy = (
            float(report.avg_occupancy) if report is not None else None
        )
        nodes.append(_slave_row(nid, master, owned_count.get(nid, 0), occupancy))

    failures = [dict(f) for f in master.state.failures]
    degraded = any(
        f.get("recovered_at") is None or f.get("lost_pids") for f in failures
    )
    return {
        "schema": STATUS_SCHEMA_VERSION,
        "backend": backend,
        "t": now_fn(),
        "run_seconds": cfg.run_seconds,
        "acting_master": master.comm.node_id,
        "epochs": mm.epochs,
        "reorgs": mm.reorgs,
        "nodes": nodes,
        "partition_owners": {str(pid): owners[pid] for pid in sorted(owners)},
        "replication_bytes": mm.replication_bytes,
        "degraded": degraded,
        "failures": failures,
        "recovery_latencies": [
            f["recovery_latency"]
            for f in failures
            if f.get("recovery_latency") is not None
        ],
    }
