"""Aligned Tuple Routing (Gu, Yu & Wang, ICDE 2007) — baseline.

ATR designates one stream the *master stream* (stream 0 here) and
slices time into segments of length ``L >= W``.  All join processing
for segment ``j`` happens on one node ``n_j`` (round-robin):

* stream-0 tuples of segment ``j`` are routed to ``n_j``;
* stream-1 tuples are routed to the current segment's node, and
  *duplicated* to the next segment's node during the final ``W``
  seconds of the segment, pre-positioning the window history the next
  node will need.

This keeps the join exact without state movement — the property tests
check ATR against the naive oracle — but, as the paper's Section VII
argues, it *circulates* load instead of balancing it: during a segment
one node carries the entire join (its window holds both streams'
complete windows) while the others only absorb duplicated slave-stream
tuples.  The baseline benches quantify exactly that: per-node CPU is
bursty, the max window on a node approaches the full two-stream window,
and capacity barely improves with cluster size.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.baselines.framework import LightSlave, RoutingMaster
from repro.core.cluster import geometry_of
from repro.core.hashing import split_by
from repro.core.join_module import JoinModule
from repro.core.protocol import Shipment
from repro.core.steps import IntArray, Step
from repro.data.tuples import TupleBatch


class AtrMaster(RoutingMaster):
    """Routes by time segment instead of by key hash.  A segment lasts
    ``L = 2W``; the scheme needs only ``L >= W``."""

    def _node_of_segment(self, seg: IntArray) -> IntArray:
        ids = np.asarray(self.all_slaves, dtype=np.int64)
        return ids[seg % len(ids)]

    def route(self, batch: TupleBatch) -> dict[int, TupleBatch]:
        if not len(batch):
            return {}
        W = self.cfg.window_seconds
        L = 2.0 * W
        seg = (batch.ts // L).astype(np.int64)
        dest = self._node_of_segment(seg)
        routed: dict[int, list[TupleBatch]] = {}
        bound = self.all_slaves[-1] + 1
        for node, rows in split_by(dest, bound):
            routed.setdefault(node, []).append(batch.take(rows))
        # Duplicate stream-1 tuples of a segment's last W seconds to the
        # next segment's node (window pre-positioning).
        tail = (batch.stream == 1) & (batch.ts >= (seg + 1) * L - W)
        if np.any(tail):
            idx = np.flatnonzero(tail)
            next_dest = self._node_of_segment(seg[idx] + 1)
            fresh_copy = next_dest != dest[idx]  # single-node ring: no-op
            idx, next_dest = idx[fresh_copy], next_dest[fresh_copy]
            for node, rows in split_by(next_dest, bound):
                routed.setdefault(node, []).append(batch.take(idx[rows]))
        out: dict[int, TupleBatch] = {}
        for node, parts in routed.items():
            merged = TupleBatch.concat(parts)
            order = np.argsort(merged.ts, kind="stable")
            out[node] = merged.take(order)
        return out


class AtrSlave(LightSlave):
    """A light slave running the ordinary join module on one partition."""

    def __init__(self, *args: t.Any) -> None:
        super().__init__(*args)
        # npart=1: ATR does not hash-partition; each node joins all the
        # tuples it is routed.
        self.module = JoinModule(
            self.node_id,
            geometry_of(self.cfg),
            self.cost_model,
            npart=1,
            metrics=self.metrics,
            collect_pairs=self.collect_pairs,
        )
        self.module.add_partition(0)

    def handle_shipment(self, shipment: Shipment) -> t.Iterator[Step]:
        self.module.enqueue(shipment)
        # Passes are bounded; baseline slaves have no state moves to
        # let in, so drain everything for this shipment.
        while self.module.has_work:
            yield from self.module.steps()

    @property
    def window_bytes(self) -> int:
        return self.module.window_bytes
