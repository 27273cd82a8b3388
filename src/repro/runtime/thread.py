"""Wall-clock runtime backend: node generators driven by real threads.

Used by the "live cluster" examples: the very same master/slave/collector
generators that run on the DES kernel are executed here on one thread
per node, with :class:`~repro.net.thread_transport.ThreadTransport`
providing real queue-based rendezvous channels.

``time_scale`` compresses time: with ``time_scale=0.1`` a simulated
second lasts 100 wall milliseconds, so a 60-second scenario demos in 6.
"""

from __future__ import annotations

import threading
import time
import typing as t

import numpy as np
import numpy.typing as npt


class KilledNode(BaseException):
    """Raised inside a node generator when its node was crash-injected.

    A ``BaseException`` so it can't be swallowed by a broad ``except
    Exception`` in node code: fail-stop means the generator unwinds
    immediately.  The drive loop treats it as clean termination."""


class Thunk:
    """An awaitable for the thread backend: a blocking callable."""

    __slots__ = ("fn",)

    def __init__(self, fn: t.Callable[[], t.Any]) -> None:
        self.fn = fn

    def run(self) -> t.Any:
        return self.fn()


class ThreadHandle:
    """Join handle for a spawned node thread."""

    def __init__(self, thread: threading.Thread) -> None:
        self.thread = thread
        self.error: BaseException | None = None

    def join(self, timeout: float | None = None) -> None:
        self.thread.join(timeout)
        if self.error is not None:
            raise self.error

    @property
    def is_alive(self) -> bool:
        return self.thread.is_alive()


class ThreadRuntime:
    """Runtime backend executing node generators on real threads.

    *origin* is the ``time.monotonic()`` value corresponding to modeled
    t=0 (defaults to "now").  The process backend passes a shared origin
    so every node process agrees on the modeled clock —
    ``CLOCK_MONOTONIC`` is system-wide on Linux.
    """

    def __init__(
        self, time_scale: float = 1.0, origin: float | None = None
    ) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self._origin = time.monotonic() if origin is None else origin
        self.handles: list[ThreadHandle] = []

    def rebase(self, origin: float) -> None:
        """Move modeled t=0 to the given ``time.monotonic()`` value.

        Only valid before any generator is spawned (the process backend
        rebases after its start barrier, once every node is built)."""
        if self.handles:
            raise RuntimeError("cannot rebase a runtime with live threads")
        self._origin = origin

    # -- Runtime protocol ---------------------------------------------------
    def now(self) -> float:
        return (time.monotonic() - self._origin) / self.time_scale

    def sleep(self, delay: float) -> Thunk:
        wall = max(0.0, delay) * self.time_scale
        return Thunk(lambda: time.sleep(wall))

    def sleep_until(self, deadline: float) -> Thunk:
        def fn() -> None:
            remaining = (deadline - self.now()) * self.time_scale
            if remaining > 0:
                time.sleep(remaining)

        return Thunk(fn)

    def cpu(self, cost: float) -> Thunk:
        return self.sleep(cost)

    def cpu_units(
        self, costs: npt.NDArray[np.float64], until: float = float("inf")
    ) -> Thunk:
        # No event queue to consult on a wall clock: one sleep for the
        # whole run, and every unit exists from the instant we wake.
        wall = float(costs.sum()) * self.time_scale

        def fn() -> npt.NDArray[np.float64]:
            time.sleep(wall)
            return np.full(len(costs), self.now())

        return Thunk(fn)

    def spawn(self, generator: t.Generator, name: str = "") -> ThreadHandle:
        handle = ThreadHandle(
            threading.Thread(
                target=self._drive, args=(generator,), name=name, daemon=True
            )
        )
        # Late binding: the drive loop needs the handle to report errors.
        handle.thread._repro_handle = handle  # type: ignore[attr-defined]
        self.handles.append(handle)
        handle.thread.start()
        return handle

    # -- driver ---------------------------------------------------------------
    @staticmethod
    def _drive(generator: t.Generator) -> None:
        handle: ThreadHandle = threading.current_thread()._repro_handle  # type: ignore[attr-defined]
        try:
            value: t.Any = None
            while True:
                op = generator.send(value)
                if not hasattr(op, "run"):
                    raise TypeError(
                        f"node generator yielded {op!r}; thread backend "
                        "requires awaitables with a run() method"
                    )
                value = op.run()
        except StopIteration:
            pass
        except KilledNode:
            pass  # fail-stop injection: the node is simply gone
        except BaseException as error:  # noqa: BLE001 - reported on join
            handle.error = error

    def join_all(self, timeout: float | None = None) -> None:
        """Wait for every spawned node; re-raises the first node error."""
        for handle in self.handles:
            handle.join(timeout)

    def make_lock(self, name: str = ""):
        from repro.runtime.sync import ThreadLock

        return ThreadLock(name=name)

    def make_queue(self, name: str = ""):
        from repro.runtime.sync import ThreadQueue

        return ThreadQueue(name=name)


def reject_unsupported(
    cfg: t.Any, backend: str, crash_ok: bool = False
) -> None:
    """Fail fast on config features a wall-clock backend cannot honor.

    The fault plane's message/slowdown injection hangs off the DES
    transport; the wall-clock backends support only ``crash:`` specs
    (*crash_ok*) — the thread backend reaps the victim's threads, the
    process backend SIGKILLs the victim's OS process.  (Observability
    is supported everywhere since the tracer went thread-safe: records
    are stamped with a per-node ``seq`` under a lock.)
    """
    from repro.errors import ConfigError

    if not cfg.faults.enabled:
        return
    if not crash_ok:
        raise ConfigError(
            f"the {backend} backend does not support fault injection; "
            "use backend='sim' or backend='process' (crash faults only)"
        )
    unsupported = [
        f.spec() for f in (*cfg.faults.messages, *cfg.faults.slowdowns)
    ]
    if unsupported:
        raise ConfigError(
            f"the {backend} backend supports only crash: fault specs "
            f"(the victim's OS process is killed); unsupported: "
            f"{', '.join(unsupported)} — use backend='sim'"
        )


class _JoinLoopVictim:
    """Kill handle for a crash-injected slave's join-loop thread.

    The transport's ``kill_node`` wakes the victim's *comm* thread (it
    is blocked in a channel op), but the join loop blocks on the
    slave-local work queue, which the fault plane cannot reach — so the
    kill pushes the loop's own halt token instead.
    """

    def __init__(self, slave: t.Any) -> None:
        self.slave = slave

    def kill(self, reason: str) -> None:
        from repro.core.slave import HALT_TOKEN

        self.slave.work_queue.put(HALT_TOKEN).run()


class ThreadBackend:
    """Wall-clock backend: one OS thread per node generator
    (``backend="thread"``).

    Runs the very same generators as the DES kernel, with
    :class:`~repro.net.thread_transport.ThreadTransport` rendezvous
    channels.  Time runs compressed by ``cfg.time_scale``.
    """

    name = "thread"
    supports_observability = True

    def run(
        self,
        cfg: t.Any,
        collect_pairs: bool = False,
        workload: t.Any = None,
    ) -> t.Any:
        # Local imports: repro.runtime.thread must stay importable
        # without the core layer (proc_transport pulls in Thunk).
        from repro.core.cluster import build_cluster, trace_meta
        from repro.core.system import (
            collect_result,
            slave_node_id,
            start_admin_server,
        )
        from repro.errors import DeadlockError
        from repro.net.thread_transport import ThreadTransport
        from repro.obs.tracer import NULL_TRACER, build_tracer

        reject_unsupported(cfg, self.name, crash_ok=True)
        runtime = ThreadRuntime(time_scale=cfg.time_scale)
        tracer = build_tracer(cfg.obs, meta=trace_meta(cfg))
        transport = ThreadTransport(
            cfg.tuple_bytes,
            time_scale=cfg.time_scale,
            tracer=tracer if cfg.obs.trace_transport else NULL_TRACER,
            now_fn=runtime.now,
        )
        injector = None
        if cfg.faults.enabled:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(
                cfg.faults,
                [slave_node_id(i) for i in range(cfg.num_slaves)],
                cfg.dist_epoch,
            )
        cluster = build_cluster(
            cfg,
            runtime,
            transport,
            workload=workload,
            collect_pairs=collect_pairs,
            tracer=tracer,
            faults=injector,
        )
        admin = start_admin_server(cfg, cluster, runtime.now, self.name)
        for name, gen in cluster.processes():
            runtime.spawn(gen, name=name)
        if injector is not None:
            victims_by_node = {
                slave.node_id: [_JoinLoopVictim(slave)]
                for slave in cluster.slaves
            }
            for nid, crash in injector.crash_targets():
                runtime.spawn(
                    injector.crash_process(
                        nid,
                        crash,
                        runtime,
                        transport,
                        victims_by_node.get(nid, ()),
                    ),
                    name=f"fault.crash{nid}",
                )
        # The modeled horizon plus slack for real compute overruns: the
        # generators' numpy work takes however long it takes, regardless
        # of the compressed clock.
        budget = cfg.run_seconds * cfg.time_scale * 4.0 + 60.0
        try:
            runtime.join_all(timeout=budget)
        finally:
            if admin is not None:
                admin.close()
        stuck = [h.thread.name for h in runtime.handles if h.is_alive]
        if stuck:
            raise DeadlockError(f"node threads never finished: {stuck}")
        return collect_result(cfg, cluster, collect_pairs)
