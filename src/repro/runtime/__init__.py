"""Runtime abstraction: one node implementation, one kernel, two clocks.

Node logic (master / slave / collector loops) is written as generators
that ``yield`` *awaitables* produced by a :class:`~repro.runtime.base.Runtime`
and by transport endpoints.  Every backend drives them with the
discrete-event kernel, one kernel per OS process:

* :class:`~repro.runtime.sim.SimRuntime` — virtual time; deterministic,
  used by all experiments.
* :class:`~repro.runtime.wall.WallRuntime` — the same kernel paced by
  the wall clock, waiting on the node's sockets between events; used
  by the thread, process and tcp backends.
"""

from repro.runtime.base import Runtime
from repro.runtime.sim import SimRuntime
from repro.runtime.wall import WallRuntime

__all__ = ["Runtime", "SimRuntime", "WallRuntime"]
