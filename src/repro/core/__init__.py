"""The paper's contribution: the parallel windowed stream join.

Layering (bottom up):

* :mod:`~repro.core.hashing` — the partition hash ``H`` and the
  independent directory hash ``g`` used by extendible hashing.
* :mod:`~repro.core.probe` — what a probe returns and how it finds
  its candidates.
* :mod:`~repro.core.exthash` — the extendible-hash directory used to
  fine-tune partition sizes (split/merge within ``[theta, 2*theta]``).
* :mod:`~repro.core.partition_group` — a partition-group: directory of
  mini-partition-groups plus maintenance policy; a slave's window store,
  whose ``probe`` computes every join row.
* :mod:`~repro.core.join_module` — the slave-side join module: stream
  buffers, block-at-a-time processing, work-unit generation.
* :mod:`~repro.core.costmodel` — calibrated CPU cost model.
* :mod:`~repro.core.buffer` — the master's partitioned buffer
  (mini-buffers); :mod:`~repro.core.coordinator` — the master's durable
  state (partition->slave mapping, backups, failures) and its
  transitions.
* :mod:`~repro.core.master`, :mod:`~repro.core.slave`,
  :mod:`~repro.core.collector` — node processes (Algorithm 1 and the
  repartitioning protocol).
* :mod:`~repro.core.declustering` — degree-of-declustering controller
  (Section V-A); :mod:`~repro.core.subgroups` — sub-group communication
  (Section V-B).
* :mod:`~repro.core.host` — the node host every backend runs its
  nodes in; :mod:`~repro.core.system` — backends, run loop, results.
"""

from repro.core.system import JoinSystem, RunResult

__all__ = ["JoinSystem", "RunResult"]
