"""Run-time enforcement of a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` is shared by the transport (message faults,
crash reaping), the slaves (CPU slowdowns) and the system layer (crash
processes).  All of its decisions are pure functions of the plan and
deterministic counters, so a seeded run with a given plan replays
byte-identically.

The injector also keeps the authoritative log of *injections that
actually fired* (:attr:`FaultInjector.injected`) — a crash scheduled
past the end of the run, or a message ordinal never reached, is part of
the plan but not of the injection record.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.cluster import MASTER_ID
from repro.faults.plan import CrashFault, FaultPlan, MessageFault, SlowFault
from repro.obs.events import FaultEvent
from repro.obs.tracer import NULL_TRACER, Tracer

_Cost = t.TypeVar("_Cost", float, npt.NDArray[np.float64])


class FaultInjector:
    """Deterministic fault-plan enforcement shared across layers."""

    def __init__(
        self,
        plan: FaultPlan,
        slave_ids: t.Sequence[int],
        dist_epoch: float,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.plan = plan.validated(num_slaves=len(slave_ids))
        self.tracer = tracer
        #: Timeout armed on the master's scheduled receives; ``None``
        #: with an empty plan (zero behavior change).
        self.detect_timeout: float | None = (
            plan.effective_timeout(dist_epoch) if plan.enabled else None
        )
        # MASTER_CRASH is a sentinel, not a slave index: naively
        # indexing slave_ids[-1] would silently target the last slave.
        self._crash_by_node: dict[int, CrashFault] = {
            (MASTER_ID if c.targets_master else slave_ids[c.slave]): c
            for c in plan.crashes
        }
        self._slow_by_node: dict[int, list[SlowFault]] = {}
        for slow in plan.slowdowns:
            self._slow_by_node.setdefault(slave_ids[slow.slave], []).append(slow)
        self._message_faults: dict[tuple[int, int, int], MessageFault] = {
            (m.src, m.dst, m.k): m for m in plan.messages
        }
        self._send_counts: dict[tuple[int, int], int] = {}
        self._slow_fired: set[SlowFault] = set()
        #: Injections that actually fired, in firing order.
        self.injected: list[dict[str, t.Any]] = []

    @property
    def enabled(self) -> bool:
        return self.plan.enabled

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
    ) -> t.Generator[t.Any, t.Any, None]:
        """Killer process: fail-stop *node_id* at the planned time.

        The crash is recorded first, so no peer on a wall clock can
        trace its detection ahead of it.  Then the transport is told —
        pending channel entries of the victim are purged and its peers'
        receives resolve to ``NodeDown`` — and only then are the
        victim's processes killed, so no stale rendezvous entry can
        ever match a live peer.
        """
        yield runtime.sleep_until(crash.at)
        now = float(runtime.now())
        self._record("crash", node_id, now, info=crash.at)
        transport.kill_node(node_id)
        for proc in victims:
            proc.kill(f"fault injection: crash of node {node_id} at t={now:g}")

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
