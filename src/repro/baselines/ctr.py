"""Simplified Coordinated Tuple Routing — baseline.

CTR (Gu, Yu & Wang, ICDE 2007) spreads each stream's window over the
cluster in segments and routes every incoming tuple through the set of
nodes hosting the opposite window ("routing hops").  For a two-stream
join the hop structure degenerates to: *every node holds a time-slice
of both windows, and every incoming tuple visits every node*.

Implementation:

* a tuple's **home** node is chosen by its arrival time slice
  (round-robin over nodes per ``dist_epoch``); only the home stores it;
* the master broadcasts every epoch's batch to *all* nodes (this is the
  cascading forwarding of the routing path — the high network overhead
  the paper criticizes in Section VII);
* each node probes the incoming tuples against its local windows
  (stream 0 of the batch first, then stream 1, so fresh/fresh pairs are
  found exactly once), then stores the home subset.

Join results are exact (checked against the oracle).  The costs are
the point: per-node CPU carries the fixed per-tuple work for the whole
input (no division by N) and network bytes scale with N.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.baselines.framework import LightSlave, RoutingMaster
from repro.core.cluster import geometry_of, slave_node_id
from repro.core.exthash import Bucket
from repro.core.hashing import HashArray, bit_reverse, split_by
from repro.core.partition_group import PartitionGroup
from repro.core.probe import key_ranges
from repro.core.protocol import Shipment
from repro.core.steps import FloatArray, Step
from repro.data.tuples import MaskArray, TsArray, TupleBatch


def _unit(kind: str, cost: float, run: t.Callable[[float], None]) -> Step:
    """A step of one unit: every CTR cost is read off the windows as
    the unit before it left them."""

    def retire(_lo: int, _hi: int, emit_times: FloatArray) -> None:
        run(float(emit_times[0]))

    return Step(kind, np.array([cost]), retire)


class CtrMaster(RoutingMaster):
    """Broadcasts every batch to every node."""

    def route(self, batch: TupleBatch) -> dict[int, TupleBatch]:
        if not len(batch):
            return {}
        return {s: batch for s in self.all_slaves}


class CtrSlave(LightSlave):
    """Stores its time-slice of both windows; probes everything."""

    def __init__(self, *args: t.Any) -> None:
        super().__init__(*args)
        self.group = PartitionGroup(0, geometry_of(self.cfg))
        # Home time-slice of this node: the slot round-robin runs over
        # the slaves in index order.
        self.slot_index = self.node_id - slave_node_id(0)
        self.n_slots = self.cfg.num_slaves

    def _home_mask(self, ts: TsArray) -> MaskArray:
        slots = (ts // self.cfg.dist_epoch).astype(np.int64) % self.n_slots
        home: MaskArray = slots == self.slot_index
        return home

    def handle_shipment(self, shipment: Shipment) -> t.Iterator[Step]:
        cfg, group = self.cfg, self.group
        cutoff = shipment.epoch_start - cfg.window_seconds

        def expire(_emit: float) -> None:
            group.expire_before(cutoff)

        expired = group.count_before(cutoff) * cfg.tuple_bytes
        yield _unit("expire", self.cost_model.expire_cost(expired), expire)

        batch = shipment.batch
        for sid in (0, 1):
            sub = batch.by_stream(sid)
            if not len(sub):
                continue
            at, gvals = group.route(sub.key)
            for index, idx in split_by(at, len(group.directory.buckets())):
                part, rkey = sub.take(idx), bit_reverse(gvals[idx])
                bucket = group.directory.buckets()[index]
                cost = self.cost_model.probe_cost(
                    len(part), group.committed_bytes(bucket, 1 - sid)
                )

                def run(
                    emit: float,
                    part: TupleBatch = part,
                    rkey: HashArray = rkey,
                    sid: int = sid,
                ) -> None:
                    # The group's run holds every mini-group's tuples;
                    # mini-groups are key-disjoint, so *part* matches
                    # only those of its own.
                    store = group.store
                    result = store.probe(
                        part.stream,
                        part.ts,
                        part.seq,
                        key_ranges(store.sorted_run()[0], rkey),
                        self.collect_pairs,
                    )
                    self.metrics.record_outputs(emit, result.newer_ts)
                    self.metrics.tuples_processed += len(part)
                    if result.pairs is not None and len(result.pairs):
                        self.metrics.record_pairs(group.pid, result.pairs)
                    home = self._home_mask(part.ts)
                    if home.any():
                        group.admit(sid, rkey[home], part.ts[home], part.seq[home])

                yield _unit("probe", cost, run)
        # Fine tuning still applies to the local slices.
        if group.geometry.fine_tuning:
            for bucket, nbytes in group.tuning_candidates()[0]:

                def tune(_emit: float, b: Bucket = bucket) -> None:
                    group.split_bucket(b)
                    self.metrics.splits += 1

                yield _unit("tune", self.cost_model.tuning_cost(nbytes), tune)

    @property
    def window_bytes(self) -> int:
        return self.group.total_bytes
