"""The collector node.

Join results from the slaves are routed to a collector that merges the
query results for delivery to users (Figure 1).  Here each slave sends
a per-epoch :class:`~repro.core.protocol.ResultReport` carrying a delay
statistics snapshot; the collector runs one receiver process per slave
(they terminate on the slave's Halt) and merges everything into a
global :class:`~repro.core.metrics.DelayStats` — which must equal the
sum of the slaves' local statistics, a property the integration tests
assert.
"""

from __future__ import annotations

import typing as t

from repro.core.metrics import CommAccount, DelayStats
from repro.core.protocol import Halt, ResultReport
from repro.errors import ProtocolError
from repro.faults.markers import NodeDown
from repro.mp.comm import Communicator


class CollectorNode:
    """Merges result statistics streamed by the slaves."""

    def __init__(
        self,
        node_id: int,
        comm: Communicator,
        metrics: CommAccount,
        slave_ids: t.Sequence[int],
    ) -> None:
        self.node_id = node_id
        self.comm = comm
        self.metrics = metrics
        self.slave_ids = sorted(slave_ids)
        self.delays = DelayStats()
        #: Per-epoch merged statistics: epoch -> DelayStats (the
        #: delay/throughput timeline of the run).
        self.timeline: dict[int, DelayStats] = {}

    def timeline_rows(self) -> list[tuple[int, int, float]]:
        """Sorted ``(epoch, outputs, mean_delay)`` rows."""
        return [
            (epoch, stats.count, stats.mean)
            for epoch, stats in sorted(self.timeline.items())
        ]

    def processes(self) -> list[t.Generator]:
        return [self._receiver(s) for s in self.slave_ids]

    def _receiver(self, slave: int) -> t.Generator:
        while True:
            msg = yield self.comm.recv(slave)
            if isinstance(msg, Halt):
                return
            if isinstance(msg, NodeDown):
                # The slave crashed: its result stream simply ends
                # (reports already merged stay counted).
                return
            if not isinstance(msg, ResultReport):
                raise ProtocolError(
                    f"collector expected ResultReport/Halt from {slave}, "
                    f"got {type(msg).__name__}"
                )
            stats: DelayStats = msg.stats
            self.delays.merge(stats)
            if stats.count:
                bucket = self.timeline.setdefault(msg.epoch, DelayStats())
                bucket.merge(stats)
