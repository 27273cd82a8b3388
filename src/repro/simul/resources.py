"""Shared resources for simulated processes.

* :class:`Store` — an unbounded FIFO of items with a blocking ``get``.
* :class:`Resource` — a mutex with FIFO granting (``acquire`` /
  ``release``).

They are the node code's queue and lock on every backend
(``SimRuntime.make_queue``/``make_lock``): a node generator uses a
lock to serialize join-state access between its comm and join
processes, and a queue to hand work tokens from comm to join —
``yield lock.acquire()`` / ``lock.release()``, ``yield q.put(item)`` /
``item = yield q.get()``.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro.errors import SimulationError
from repro.simul.events import Event

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.kernel import Simulator


class Store:
    """Unbounded FIFO store of items with a blocking ``get``."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.items: deque[t.Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: t.Any) -> Event:
        """Event firing once *item* has been accepted (at once: the
        store is unbounded); hands it straight to the oldest getter."""
        event = self.sim.event(name=f"put:{self.name}")
        event.succeed()
        # A getter waits only while the store is empty.
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
        return event

    def get(self) -> Event:
        """Event firing with the next item (FIFO)."""
        event = self.sim.event(name=f"get:{self.name}")
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event


class Resource:
    """A mutex with FIFO granting."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._held = False
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        """Event firing once the mutex is granted."""
        event = self.sim.event(name=f"acquire:{self.name}")
        if self._held:
            self._waiters.append(event)
        else:
            self._held = True
            event.succeed()
        return event

    def release(self) -> None:
        """Free the mutex, or hand it to the oldest waiter."""
        if not self._held:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._held = False
