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

from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.join_module import JoinModule
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import JoinGeometry
from repro.core.protocol import Shipment
from repro.core.steps import Step
from repro.baselines.framework import (
    BaselineResult,
    EpochMasterBase,
    LightSlaveMixin,
    run_baseline,
)
from repro.data.tuples import TupleBatch
from repro.errors import ConfigError
from repro.mp.comm import Communicator


def _geometry(cfg: SystemConfig) -> JoinGeometry:
    return JoinGeometry(
        tuples_per_block=cfg.tuples_per_block,
        block_bytes=cfg.block_bytes,
        theta_bytes=cfg.theta_bytes,
        window_seconds=cfg.window_seconds,
        fine_tuning=cfg.fine_tuning,
        tuple_bytes=cfg.tuple_bytes,
    )


class AtrMaster(EpochMasterBase):
    """Routes by time segment instead of by key hash."""

    def __init__(self, *args: t.Any, segment_seconds: float, **kw: t.Any) -> None:
        super().__init__(*args, **kw)
        if segment_seconds < self.cfg.window_seconds:
            raise ConfigError(
                "ATR needs segment_seconds >= window_seconds "
                f"({segment_seconds} < {self.cfg.window_seconds})"
            )
        self.segment_seconds = float(segment_seconds)

    def _node_of_segment(self, seg: np.ndarray) -> np.ndarray:
        ids = np.asarray(self.slave_ids)
        return ids[seg % len(ids)]

    def route(self, batch: TupleBatch) -> dict[int, TupleBatch]:
        if not len(batch):
            return {}
        L, W = self.segment_seconds, self.cfg.window_seconds
        seg = (batch.ts // L).astype(np.int64)
        dest = self._node_of_segment(seg)
        routed: dict[int, list[TupleBatch]] = {}
        for node in np.unique(dest):
            routed.setdefault(int(node), []).append(
                batch.take(np.flatnonzero(dest == node))
            )
        # Duplicate stream-1 tuples of a segment's last W seconds to the
        # next segment's node (window pre-positioning).
        tail = (batch.stream == 1) & (batch.ts >= (seg + 1) * L - W)
        if np.any(tail):
            idx = np.flatnonzero(tail)
            next_dest = self._node_of_segment(seg[idx] + 1)
            fresh_copy = next_dest != dest[idx]  # single-node ring: no-op
            idx, next_dest = idx[fresh_copy], next_dest[fresh_copy]
            for node in np.unique(next_dest):
                routed.setdefault(int(node), []).append(
                    batch.take(idx[next_dest == node])
                )
        out: dict[int, TupleBatch] = {}
        for node, parts in routed.items():
            merged = TupleBatch.concat(parts)
            order = np.argsort(merged.ts, kind="stable")
            out[node] = merged.take(order)
        return out


class AtrSlave(LightSlaveMixin):
    """A light slave running the ordinary join module on one partition."""

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Communicator,
        metrics: SlaveMetrics,
        node_id: int,
        collect_pairs: bool,
    ) -> None:
        self.comm = comm
        self.metrics = metrics
        self.master_id = 0
        self._init_light(runtime, node_id)
        # npart=1: ATR does not hash-partition; each node joins all the
        # tuples it is routed.
        self.module = JoinModule(
            node_id,
            _geometry(cfg),
            CostModel(cfg.cost),
            npart=1,
            metrics=metrics,
            collect_pairs=collect_pairs,
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


class AtrSystem:
    """Runner for the ATR baseline."""

    def __init__(
        self,
        cfg: SystemConfig,
        segment_seconds: float | None = None,
        workload: t.Any = None,
        collect_pairs: bool = False,
    ) -> None:
        self.cfg = cfg.validated()
        self.segment_seconds = (
            segment_seconds
            if segment_seconds is not None
            else 2.0 * cfg.window_seconds
        )
        self.workload = workload
        self.collect_pairs = collect_pairs

    def run(self) -> BaselineResult:
        seg = self.segment_seconds

        def make_master(cfg, runtime, comm, workload, slave_ids):
            return AtrMaster(
                cfg, runtime, comm, workload, slave_ids, segment_seconds=seg
            )

        return run_baseline(
            "atr",
            self.cfg,
            make_master,
            AtrSlave,
            workload=self.workload,
            collect_pairs=self.collect_pairs,
        )
