"""Discrete-event simulation kernel.

A small, self-contained, SimPy-flavoured kernel:

* :class:`~repro.simul.kernel.Simulator` — the event loop (binary heap of
  timestamped events, deterministic FIFO tie-breaking).
* :class:`~repro.simul.events.Event` — one-shot occurrences carrying a
  value or an exception.
* :class:`~repro.simul.process.Process` — generator-based cooperative
  processes; a process ``yield``\\ s events and is resumed with the
  event's value when it fires.
* :mod:`~repro.simul.resources` — an unbounded FIFO :class:`Store` and a
  mutex :class:`Resource`, the node code's queue and lock on every
  backend.
* :mod:`~repro.simul.rng` — named, reproducible random substreams.

The kernel is deliberately minimal: every feature here is exercised by
the cluster model, and nothing else is included.
"""

from repro.simul.events import Event, Timeout
from repro.simul.kernel import Simulator
from repro.simul.process import Process, ProcessKilled
from repro.simul.resources import Resource, Store
from repro.simul.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "ProcessKilled",
    "Store",
    "Resource",
    "RngRegistry",
]
