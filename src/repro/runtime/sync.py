"""Synchronization primitives for node code, on the DES kernel.

A node generator uses a lock to serialize join-state access between its
comm and join processes, and a queue to hand work tokens from comm to
join.  Every backend drives its node generators with the kernel (the
wall-clock ones pace it by the wall clock), so one flavour of each
serves them all:

* ``yield lock.acquire()`` / ``lock.release()``
* ``yield q.put(item)`` / ``item = yield q.get()``
"""

from __future__ import annotations

import typing as t

from repro.simul.kernel import Simulator
from repro.simul.resources import Resource, Store


class SimLock:
    """Mutex on the simulation kernel."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._resource = Resource(sim, name=name)

    def acquire(self) -> t.Any:
        return self._resource.request()

    def release(self) -> None:
        self._resource.release()


class SimQueue:
    """Unbounded FIFO on the simulation kernel."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._store = Store(sim, name=name)

    def put(self, item: t.Any) -> t.Any:
        return self._store.put(item)

    def get(self) -> t.Any:
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)
