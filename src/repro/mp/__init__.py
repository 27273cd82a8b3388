"""MPI-flavoured message passing on top of the transport layer.

The paper implements its prototype on mpiJava/LAM-MPI; here the
equivalent layer is a :class:`~repro.mp.comm.Communicator` providing
blocking point-to-point ``send``/``recv`` and a typed-expect receive —
all the join protocol's fixed communication schedule needs — expressed
as awaitables and generators so they run unchanged on every runtime
backend.
"""

from repro.mp.comm import Communicator

__all__ = ["Communicator"]
