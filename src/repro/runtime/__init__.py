"""Runtime abstraction: one node implementation, two execution targets.

Node logic (master / slave / collector loops) is written as generators
that ``yield`` *awaitables* produced by a :class:`~repro.runtime.base.Runtime`
and by transport endpoints.  Two interchangeable backends exist:

* :class:`~repro.runtime.sim.SimRuntime` — virtual time on the
  discrete-event kernel; deterministic, used by all experiments.
* :class:`~repro.runtime.thread.ThreadRuntime` — wall-clock time on
  real threads; used by the thread, process and tcp backends.
"""

from repro.runtime.base import Runtime
from repro.runtime.sim import SimRuntime
from repro.runtime.thread import ThreadRuntime

__all__ = ["Runtime", "SimRuntime", "ThreadRuntime"]
