"""Backend-agnostic synchronization primitives for node code.

A node generator uses a lock to serialize join-state access between its
comm and join processes, and a queue to hand work tokens from comm to
join.  Both exist in a simulated and a threaded flavour with the same
yield-style API:

* ``yield lock.acquire()`` / ``lock.release()``
* ``yield q.put(item)`` / ``item = yield q.get()``
"""

from __future__ import annotations

import queue as _queue
import threading
import typing as t

from repro.runtime.thread import Thunk
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


class ThreadLock:
    """Mutex for the thread backend.

    A lock belongs to one node, so a crash kill may break it: every
    waiter, present and future, then returns without the lock.  The
    holder may have been killed mid-section and will never release."""

    def __init__(self, name: str = "") -> None:
        self._cond = threading.Condition()
        self._held = False
        self._broken = False

    def _acquire(self) -> None:
        with self._cond:
            self._cond.wait_for(lambda: not self._held or self._broken)
            self._held = True

    def _break(self) -> None:
        with self._cond:
            self._broken = True
            self._cond.notify_all()

    def acquire(self) -> Thunk:
        return Thunk(self._acquire, wake=self._break)

    def release(self) -> None:
        with self._cond:
            self._held = False
            self._cond.notify()


class ThreadQueue:
    """Unbounded FIFO for the thread backend."""

    def __init__(self, name: str = "") -> None:
        self._queue: _queue.Queue = _queue.Queue()

    def put(self, item: t.Any) -> Thunk:
        return Thunk(lambda: self._queue.put(item))

    def get(self) -> Thunk:
        # A killed getter is woken by a dummy item it never returns.
        return Thunk(self._queue.get, wake=lambda: self._queue.put(None))

    def __len__(self) -> int:
        return self._queue.qsize()
