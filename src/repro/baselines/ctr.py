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

from repro.baselines.framework import (
    BaselineResult,
    EpochMasterBase,
    LightSlaveMixin,
    run_baseline,
)
from repro.config import SystemConfig
from repro.core.costmodel import CostModel
from repro.core.hashing import bit_reverse
from repro.core.metrics import SlaveMetrics
from repro.core.partition_group import JoinGeometry, PartitionGroup
from repro.core.protocol import Shipment
from repro.core.steps import FloatArray, Step
from repro.data.tuples import TupleBatch
from repro.mp.comm import Communicator


def _unit(kind: str, cost: float, run: t.Callable[[float], None]) -> Step:
    """A step of one unit: every CTR cost is read off the windows as
    the unit before it left them."""

    def retire(_lo: int, _hi: int, emit_times: FloatArray) -> None:
        run(float(emit_times[0]))

    return Step(kind, np.array([cost]), retire)


class CtrMaster(EpochMasterBase):
    """Broadcasts every batch to every node."""

    def route(self, batch: TupleBatch) -> dict[int, TupleBatch]:
        if not len(batch):
            return {}
        return {s: batch for s in self.slave_ids}


class CtrSlave(LightSlaveMixin):
    """Stores its time-slice of both windows; probes everything."""

    def __init__(
        self,
        cfg: SystemConfig,
        runtime: t.Any,
        comm: Communicator,
        metrics: SlaveMetrics,
        node_id: int,
        collect_pairs: bool,
    ) -> None:
        self.cfg = cfg
        self.comm = comm
        self.metrics = metrics
        self.master_id = 0
        self.node_id = node_id
        self.collect_pairs = collect_pairs
        self._init_light(runtime, node_id)
        self.cost_model = CostModel(cfg.cost)
        geometry = JoinGeometry(
            tuples_per_block=cfg.tuples_per_block,
            block_bytes=cfg.block_bytes,
            theta_bytes=cfg.theta_bytes,
            window_seconds=cfg.window_seconds,
            fine_tuning=cfg.fine_tuning,
            tuple_bytes=cfg.tuple_bytes,
        )
        self.group = PartitionGroup(0, geometry)
        # Home time-slice of this node: node ids are 1..N in creation
        # order, so the slot round-robin is (node_id - 1) of N.
        self.slot_index = node_id - 1
        self.n_slots = cfg.num_slaves

    def _home_mask(self, ts: np.ndarray) -> np.ndarray:
        slots = (ts // self.cfg.dist_epoch).astype(np.int64) % self.n_slots
        return slots == self.slot_index

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
            for index in np.unique(at).tolist():
                idx = np.flatnonzero(at == index)
                part, rkey = sub.take(idx), bit_reverse(gvals[idx])
                bucket = group.directory.buckets()[index]
                cost = self.cost_model.probe_cost(
                    len(part), group.committed_bytes(bucket, 1 - sid)
                )

                def run(emit: float, part=part, rkey=rkey, sid=sid) -> None:
                    # The group's run holds every mini-group's tuples;
                    # mini-groups are key-disjoint, so *part* matches
                    # only those of its own.
                    result = group.probe(
                        1 - sid,
                        part.ts,
                        rkey,
                        part.seq,
                        collect_pairs=self.collect_pairs,
                    )
                    self.metrics.record_outputs(emit, result.newer_ts)
                    self.metrics.tuples_processed += len(part)
                    if self.collect_pairs and result.pairs is not None and len(
                        result.pairs
                    ):
                        pairs = result.pairs
                        if sid == 1:
                            pairs = pairs[:, ::-1]
                        self.metrics.record_pairs(group.pid, pairs)
                    home = self._home_mask(part.ts)
                    if home.any():
                        group.admit(sid, rkey[home], part.ts[home], part.seq[home])

                yield _unit("probe", cost, run)
        # Fine tuning still applies to the local slices.
        if group.geometry.fine_tuning:
            for bucket, nbytes in group.tuning_candidates()[0]:

                def tune(_emit: float, b=bucket) -> None:
                    group.split_bucket(b)
                    self.metrics.splits += 1

                yield _unit("tune", self.cost_model.tuning_cost(nbytes), tune)

    @property
    def window_bytes(self) -> int:
        return self.group.total_bytes


class CtrSystem:
    """Runner for the simplified CTR baseline."""

    def __init__(
        self,
        cfg: SystemConfig,
        workload: t.Any = None,
        collect_pairs: bool = False,
    ) -> None:
        self.cfg = cfg.validated()
        self.workload = workload
        self.collect_pairs = collect_pairs

    def run(self) -> BaselineResult:
        return run_baseline(
            "ctr",
            self.cfg,
            CtrMaster,
            CtrSlave,
            workload=self.workload,
            collect_pairs=self.collect_pairs,
        )
