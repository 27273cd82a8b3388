"""The node types the routing baselines (ATR / CTR) share.

Both schemes run on the one cluster (``SystemConfig.routing``): a
:class:`RoutingMaster` that cuts the streams into distribution epochs
and routes each epoch's batch its own way (no load reports, no
reorganization — neither scheme migrates state), and light slaves that
only receive shipments, join them and, once drained, report their
output to the collector.  They reuse the real metrics, transport and
cost model so the comparison against the main system is
apples-to-apples.
"""

from __future__ import annotations

import typing as t

from repro.config import SystemConfig
from repro.core.cluster import COLLECTOR_ID, MASTER_ID
from repro.core.costmodel import CostModel
from repro.core.master import MasterNode
from repro.core.metrics import SlaveMetrics
from repro.core.protocol import Halt, ResultReport, Shipment
from repro.core.steps import Step, run_steps
from repro.data.tuples import TupleBatch
from repro.net.comm import Endpoint
from repro.obs.events import EpochEvent

#: A node-loop step: yields awaitables and is sent their results.
_Steps = t.Generator[t.Any, t.Any, None]


class RoutingMaster(MasterNode):
    """The master of a routing baseline: one epoch loop, no control
    rounds.

    Subclasses implement ``route(batch)`` returning ``{slave_id:
    TupleBatch}`` — which tuples (possibly duplicated) each slave
    receives for this epoch.
    """

    def route(self, batch: TupleBatch) -> dict[int, TupleBatch]:
        raise NotImplementedError  # pragma: no cover

    def run(self, k0: int = 0) -> _Steps:
        """Route each epoch's arrivals at its end, from epoch *k0* on
        (a routing run has no standby to resume one, so it is 0)."""
        cfg, rt, comm = self.cfg, self.rt, self.comm
        td = cfg.dist_epoch
        epoch = k0
        while (epoch + 1) * td <= cfg.run_seconds + 1e-9:
            boundary = (epoch + 1) * td
            yield rt.sleep_until(boundary)
            if self.tracer.enabled:
                self.tracer.emit(
                    EpochEvent(
                        t=boundary,
                        node=comm.node_id,
                        epoch=epoch,
                        phase="dist",
                        active=len(self.all_slaves),
                        buffered_bytes=0,
                    )
                )
            batch = self.workload.generate(epoch * td, boundary)
            self.metrics.tuples_ingested += len(batch)
            routed = self.route(batch)
            for s in self.all_slaves:
                sub = routed.get(s)
                if sub is None:
                    continue
                start = self.state.stamp_drain(s, boundary)
                yield comm.send(s, Shipment(epoch, start, boundary, sub))
            self.metrics.epochs += 1
            epoch += 1
        for s in self.all_slaves:
            yield comm.send(s, Halt(epoch))


class LightSlave:
    """A slave of a routing baseline: joins what it is shipped.

    Subclasses provide ``handle_shipment(shipment)`` returning an
    iterator of :class:`~repro.core.steps.Step` objects — consumed
    lazily, each fully retired before the next is asked for, by the
    same :func:`~repro.core.steps.run_steps` the real slave uses — plus
    ``window_bytes``.
    """

    def __init__(
        self,
        node_id: int,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Endpoint,
        metrics: SlaveMetrics,
        cost_model: CostModel,
        collect_pairs: bool,
    ) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.rt = runtime
        self.comm = comm
        self.metrics = metrics
        self.cost_model = cost_model
        self.collect_pairs = collect_pairs
        self._queue = runtime.make_queue(f"slave{node_id}.work")

    def processes(self) -> list[_Steps]:
        return [self.comm_loop(), self.join_loop()]

    def comm_loop(self) -> _Steps:
        """Hand each message from the master to the join loop, up to
        and including its ``Halt``."""
        while True:
            msg = yield self.comm.recv(MASTER_ID)
            yield self._queue.put(msg)
            if isinstance(msg, Halt):
                return

    def join_loop(self) -> _Steps:
        """Join each shipment in arrival order.  At the ``Halt`` every
        shipment is joined: send the collector this slave's output
        statistics in one report, then end its result stream."""
        rt, metrics = self.rt, self.metrics
        while True:
            msg = yield self._queue.get()
            if isinstance(msg, Halt):
                break
            yield from run_steps(rt, metrics, self.handle_shipment(msg))
            metrics.sample_window(rt.now(), self.window_bytes)
        report = ResultReport(msg.epoch, metrics.pop_unreported())
        yield self.comm.send(COLLECTOR_ID, report)
        yield self.comm.send(COLLECTOR_ID, Halt(msg.epoch))

    # Subclass responsibilities ------------------------------------------
    def handle_shipment(self, shipment: Shipment) -> t.Iterator[Step]:
        raise NotImplementedError  # pragma: no cover

    @property
    def window_bytes(self) -> int:
        raise NotImplementedError  # pragma: no cover
