"""The cluster interconnect.

* :mod:`~repro.net.sim_transport` — the modeled network used by all
  experiments: reliable, *rendezvous* (blocking) point-to-point links
  over a star topology, with wire time (latency + bandwidth) and
  per-endpoint message-handling overhead (serialization, TCP/MPI
  connection work).  Every transfer is accounted against both
  endpoints' communication-time and idle-time statistics — these are
  exactly the "communication overhead" and wait times the paper's
  Figures 9–14 report.
* :mod:`~repro.net.proc_transport` — framed stream-socket channels
  over the :mod:`~repro.net.wire` codec: the one data plane of the
  wall-clock backends (``thread``, ``process``, ``tcp``), whose sends
  are buffered rather than rendezvous; :mod:`~repro.net.tcp_transport`
  adds the TCP connect handshake.
* :mod:`~repro.net.comm` — the :class:`~repro.net.comm.Endpoint` both
  transports hand every node: blocking point-to-point send/recv and
  typed-expect receives, all the fixed schedule needs.

Rendezvous semantics are the heart of the paper's Section III argument:
a receive blocks until the sender is scheduled to send (and vice
versa), which is why the algorithm must follow a fixed communication
schedule.
"""

from repro.net.comm import Endpoint
from repro.net.sim_transport import SimTransport

__all__ = ["SimTransport", "Endpoint"]
