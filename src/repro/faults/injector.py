"""Run-time enforcement of a :class:`~repro.faults.plan.FaultPlan`.

Every OS process that hosts nodes builds one :class:`FaultInjector`
(:func:`build_injector`), shared there by the transport (message
faults), the slaves (CPU slowdowns) and the node host, which spawns a
:meth:`~FaultInjector.crash_process` for each crash victim it runs —
on every backend, the one way a crash is injected.  All of its
decisions are pure functions of the plan and deterministic counters,
so a seeded run with a given plan replays byte-identically.

The injector also keeps the authoritative log of *injections that
actually fired* (:attr:`FaultInjector.injected`) — a crash whose victim
had already finished, or a message ordinal never reached, is part of
the plan but not of the injection record.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.config import SystemConfig
from repro.core.cluster import MASTER_ID, slave_node_id
from repro.faults.plan import CrashFault, FaultPlan, MessageFault, SlowFault
from repro.obs.events import FaultEvent
from repro.obs.tracer import NULL_TRACER, Tracer

_Cost = t.TypeVar("_Cost", float, npt.NDArray[np.float64])


def crash_node(crash: CrashFault) -> int:
    """Node id of *crash*'s victim."""
    return MASTER_ID if crash.targets_master else slave_node_id(crash.slave)


def build_injector(cfg: SystemConfig, tracer: Tracer) -> "FaultInjector | None":
    """One node host's fault injector (``None`` without a fault plan)."""
    return FaultInjector(cfg.faults, tracer) if cfg.faults.enabled else None


class FaultInjector:
    """Deterministic fault-plan enforcement shared across layers."""

    def __init__(self, plan: FaultPlan, tracer: Tracer = NULL_TRACER) -> None:
        self.tracer = tracer
        self._crash_by_node = {crash_node(c): c for c in plan.crashes}
        self._slow_by_node: dict[int, list[SlowFault]] = {}
        for slow in plan.slowdowns:
            node = slave_node_id(slow.slave)
            self._slow_by_node.setdefault(node, []).append(slow)
        self._message_faults: dict[tuple[int, int, int], MessageFault] = {
            (m.src, m.dst, m.k): m for m in plan.messages
        }
        self._send_counts: dict[tuple[int, int], int] = {}
        self._slow_fired: set[SlowFault] = set()
        #: Injections that actually fired, in firing order.
        self.injected: list[dict[str, t.Any]] = []

    # -- crash faults ---------------------------------------------------
    def crash_targets(self) -> list[tuple[int, CrashFault]]:
        """``(node_id, fault)`` for every planned crash, by node id."""
        return sorted(self._crash_by_node.items())

    def crash_process(
        self,
        node_id: int,
        crash: CrashFault,
        runtime: t.Any,
        transport: t.Any,
        victims: t.Sequence[t.Any],
    ) -> t.Generator[t.Any, t.Any, bool]:
        """Killer process: fail-stop *node_id* at the planned time, in
        the host that runs it; returns whether the crash fired.

        *victims* are the node's runtime handles; if none is alive any
        more, the node already finished and nothing fires.  Otherwise
        the crash is recorded first, so no peer on a wall clock can
        trace its detection ahead of it.  Then the transport is told —
        peers read what was already sent, then ``NodeDown`` — and only
        then are the victim's processes killed, so no stale rendezvous
        entry can ever match a live peer.
        """
        yield runtime.sleep_until(crash.at)
        if not any(proc.is_alive for proc in victims):
            return False
        now = float(runtime.now())
        self._record("crash", node_id, now, info=crash.at)
        transport.kill_node(node_id)
        for proc in victims:
            proc.kill(f"fault injection: crash of node {node_id} at t={now:g}")
        return True

    # -- message faults -------------------------------------------------
    def send_action(
        self, src: int, dst: int, now: float
    ) -> tuple[str, float] | None:
        """Fault decision for the next message posted on ``(src, dst)``.

        Counts *every* posted message on the pair (control and payload
        alike — the schedule is fixed, so ordinals are reproducible)
        and returns ``("drop", 0.0)`` or ``("delay", seconds)`` when the
        plan names this ordinal, else ``None``.
        """
        key = (src, dst)
        count = self._send_counts.get(key, 0) + 1
        self._send_counts[key] = count
        fault = self._message_faults.get((src, dst, count))
        if fault is None:
            return None
        self._record(fault.action, dst, now, info=fault.delay, src=src)
        return (fault.action, fault.delay)

    # -- CPU slowdowns --------------------------------------------------
    def scaled_cpu(self, node_id: int, now: float, cost: _Cost) -> _Cost:
        """CPU cost of *node_id* at *now* — one cost, or an array of
        them — with slowdowns applied."""
        slows = self._slow_by_node.get(node_id)
        if not slows:
            return cost
        for slow in slows:
            if slow.start <= now < slow.stop:
                cost = cost * slow.factor
                if slow not in self._slow_fired:
                    self._slow_fired.add(slow)
                    self._record("slow", node_id, now, info=slow.factor)
        return cost

    def slowed_units(
        self, node_id: int, now: float, costs: npt.NDArray[np.float64]
    ) -> tuple[npt.NDArray[np.float64], float]:
        """:meth:`scaled_cpu` of a run of work-unit *costs*, with the
        instant until which it holds: the next start or stop of one of
        *node_id*'s slowdowns after *now* (``inf``: none).  A unit that
        starts at or after that instant must be costed again."""
        edges = (
            edge
            for slow in self._slow_by_node.get(node_id, ())
            for edge in (slow.start, slow.stop)
            if edge > now
        )
        return self.scaled_cpu(node_id, now, costs), min(edges, default=float("inf"))

    # -- bookkeeping ----------------------------------------------------
    def _record(
        self,
        action: str,
        target: int,
        now: float,
        info: float = 0.0,
        src: int | None = None,
    ) -> None:
        record: dict[str, t.Any] = {
            "action": action,
            "node": target,
            "t": now,
            "info": info,
        }
        if src is not None:
            record["src"] = src
        self.injected.append(record)
        if self.tracer.enabled:
            self.tracer.emit(
                FaultEvent(
                    t=now,
                    node=src if src is not None else target,
                    action=action,
                    target=target,
                    info=info,
                )
            )

    def injected_records(self) -> list[dict[str, t.Any]]:
        """Copy of the fired-injection log (threaded into RunResult)."""
        return [dict(r) for r in self.injected]
