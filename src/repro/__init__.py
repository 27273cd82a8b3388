"""repro — parallel windowed stream joins over a shared-nothing cluster.

Reproduction of A. Chakraborty and A. Singh, *"Parallelizing Windowed
Stream Joins in a Shared-Nothing Cluster"*, IEEE CLUSTER 2013
(arXiv:1307.6574).

The package provides:

* :mod:`repro.simul` — a discrete-event simulation kernel (processes,
  events, stores) built from scratch.
* :mod:`repro.runtime` — a runtime abstraction so the same node code runs
  on the same kernel in virtual (simulated) time or paced by the wall
  clock.
* :mod:`repro.net` — a modeled cluster network (rendezvous links, star
  topology, per-node communication accounting) and, on top of it, an
  MPI-like communicator (blocking point-to-point send/recv,
  typed-expect receives).
* :mod:`repro.data` — tuple batches and fixed-size blocks (the paper's
  64-byte tuples in 4 KB blocks).
* :mod:`repro.workload` — Poisson arrivals and b-model skewed join keys.
* :mod:`repro.core` — the paper's contribution: the master/slave windowed
  hash-join with fine-grained partition tuning (extendible hashing),
  buffer-occupancy-driven load balancing, adaptive degree of
  declustering, and sub-group communication.
* :mod:`repro.baselines` — no-fine-tuning variant, static round-robin,
  and Aligned/Coordinated Tuple Routing (``SystemConfig.routing``).
* :mod:`repro.analysis` — experiment runner reproducing every figure of
  the paper's evaluation section.

Quickstart::

    from repro import JoinSystem, SystemConfig

    cfg = SystemConfig.paper_defaults().scaled(0.05).with_(
        num_slaves=4, rate=2000.0)
    result = JoinSystem(cfg).run()
    print(result.summary())
"""

from repro._version import __version__
from repro.config import CostModelConfig, NetworkConfig, SystemConfig
from repro.core.system import JoinSystem, RunResult

__all__ = [
    "__version__",
    "SystemConfig",
    "NetworkConfig",
    "CostModelConfig",
    "JoinSystem",
    "RunResult",
]
