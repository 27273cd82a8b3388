"""Baseline and comparison systems.

* :mod:`~repro.baselines.variants` — configuration variants of the main
  system used by the paper's own ablations: no fine-tuning
  (Figures 7–10), static partitioning without load balancing, and
  non-adaptive declustering (Figure 11).  The single-machine reference
  point is the main system with ``num_slaves=1``.
* :mod:`~repro.baselines.atr` — Aligned Tuple Routing (Gu et al., ICDE
  2007), ``SystemConfig.routing="atr"``: segment-based routing of the
  master stream, duplicated slave stream at segment boundaries; the
  paper's Section VII argues it circulates rather than balances load
  and concentrates whole windows on one node.
* :mod:`~repro.baselines.ctr` — simplified Coordinated Tuple Routing,
  ``SystemConfig.routing="ctr"``: window segments spread over all
  nodes, every incoming tuple forwarded to every node holding
  opposite-window state; high network overhead.

Both routings run on every backend through the one cluster:
:func:`~repro.core.cluster.build_cluster` builds the node types
:data:`NODE_TYPES` names.
"""

from repro.baselines.atr import AtrMaster, AtrSlave
from repro.baselines.ctr import CtrMaster, CtrSlave
from repro.baselines.framework import LightSlave, RoutingMaster
from repro.baselines.variants import (
    no_fine_tuning,
    non_adaptive,
    static_partitioning,
)

#: ``SystemConfig.routing`` -> the master and slave node types of that
#: routing baseline.
NODE_TYPES: dict[str, tuple[type[RoutingMaster], type[LightSlave]]] = {
    "atr": (AtrMaster, AtrSlave),
    "ctr": (CtrMaster, CtrSlave),
}

__all__ = [
    "NODE_TYPES",
    "no_fine_tuning",
    "static_partitioning",
    "non_adaptive",
]
