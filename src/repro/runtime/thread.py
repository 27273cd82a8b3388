"""Wall-clock runtime backend: node generators driven by real threads.

The runtime of the thread backend and of every process/tcp node: the
very same master/slave/collector generators that run on the DES kernel
are executed here on one thread each, exchanging messages over the
framed socket channels of :mod:`repro.net.proc_transport` — socket
pairs inside this process for the thread backend, across processes or
hosts for the others.

``time_scale`` compresses time: with ``time_scale=0.1`` a simulated
second lasts 100 wall milliseconds, so a 60-second scenario demos in 6.
"""

from __future__ import annotations

import threading
import time
import typing as t

import numpy as np
import numpy.typing as npt

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig


def wall_budget(cfg: "SystemConfig") -> float:
    """Wall seconds a wall-clock run may take: the modeled horizon plus
    slack for numpy work, which the compressed clock does not shrink."""
    return cfg.run_seconds * cfg.time_scale * 4.0 + 60.0


class KilledNode(BaseException):
    """Raised inside a node generator when its node was crash-injected.

    A ``BaseException`` so it can't be swallowed by a broad ``except
    Exception`` in node code: fail-stop means the generator unwinds
    immediately.  The drive loop treats it as clean termination."""


class Thunk:
    """An awaitable for the thread backend: a blocking callable.

    *wake*, when given, unblocks a thread waiting in :meth:`run` (see
    :meth:`ThreadHandle.kill`)."""

    __slots__ = ("fn", "wake")

    def __init__(
        self,
        fn: t.Callable[[], t.Any],
        wake: t.Callable[[], None] | None = None,
    ) -> None:
        self.fn = fn
        self.wake = wake

    def run(self) -> t.Any:
        return self.fn()


class ThreadHandle:
    """Join handle for a spawned node thread."""

    def __init__(self, thread: threading.Thread) -> None:
        self.thread = thread
        self.error: BaseException | None = None
        self.killed = False
        #: The awaitable the thread runs (or last ran).
        self.waiting: Thunk | None = None

    def join(self, timeout: float | None = None) -> None:
        self.thread.join(timeout)
        if self.error is not None:
            raise self.error

    def kill(self, reason: str = "") -> None:
        """Fail-stop the node thread, as a crash injection does to a
        simulated process: its generator is never resumed again.

        A thread blocked on a runtime queue or lock is woken here; one
        blocked on a channel is woken by the transport's ``kill_node``,
        which shuts down the node's sockets.
        """
        self.killed = True
        waiting = self.waiting
        if waiting is not None and waiting.wake is not None:
            waiting.wake()

    @property
    def is_alive(self) -> bool:
        return self.thread.is_alive()


class ThreadRuntime:
    """Runtime backend executing node generators on real threads.

    Modeled t=0 is the first :meth:`spawn` — the moment the run starts,
    however long building the cluster took before it (until then the
    clock reads from construction).  A process/tcp node instead passes
    the launcher's shared ``time.monotonic()`` origin to :meth:`rebase`,
    so every node process agrees on the modeled clock —
    ``CLOCK_MONOTONIC`` is system-wide on Linux.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self.time_scale = time_scale
        self._origin = time.monotonic()
        #: Whether t=0 is fixed; if not, the first spawn fixes it.
        self._anchored = False
        self.handles: list[ThreadHandle] = []

    def rebase(self, origin: float) -> None:
        """Move modeled t=0 to the given ``time.monotonic()`` value.

        Only valid before any generator is spawned (the process backend
        rebases after its start barrier, once every node is built)."""
        if self.handles:
            raise RuntimeError("cannot rebase a runtime with live threads")
        self._origin = origin
        self._anchored = True

    # -- Runtime protocol ---------------------------------------------------
    def now(self) -> float:
        return (time.monotonic() - self._origin) / self.time_scale

    def sleep(self, delay: float) -> Thunk:
        wall = max(0.0, delay) * self.time_scale
        return Thunk(lambda: time.sleep(wall))

    def sleep_until(self, deadline: float) -> Thunk:
        def fn() -> None:
            remaining = (deadline - self.now()) * self.time_scale
            if remaining > 0:
                time.sleep(remaining)

        return Thunk(fn)

    def cpu(self, cost: float) -> Thunk:
        return self.sleep(cost)

    def cpu_units(
        self, costs: npt.NDArray[np.float64], until: float = float("inf")
    ) -> Thunk:
        # No event queue to consult on a wall clock: one sleep for the
        # whole run, and every unit exists from the instant we wake.
        wall = float(costs.sum()) * self.time_scale

        def fn() -> npt.NDArray[np.float64]:
            time.sleep(wall)
            return np.full(len(costs), self.now())

        return Thunk(fn)

    def spawn(self, generator: t.Generator, name: str = "") -> ThreadHandle:
        if not self._anchored:
            self.rebase(time.monotonic())
        handle = ThreadHandle(
            threading.Thread(
                target=self._drive, args=(generator,), name=name, daemon=True
            )
        )
        # Late binding: the drive loop needs the handle to report errors.
        handle.thread._repro_handle = handle  # type: ignore[attr-defined]
        self.handles.append(handle)
        handle.thread.start()
        return handle

    # -- driver ---------------------------------------------------------------
    @staticmethod
    def _drive(generator: t.Generator) -> None:
        handle: ThreadHandle = threading.current_thread()._repro_handle  # type: ignore[attr-defined]
        try:
            value: t.Any = None
            while True:
                op = generator.send(value)
                if not hasattr(op, "run"):
                    raise TypeError(
                        f"node generator yielded {op!r}; thread backend "
                        "requires awaitables with a run() method"
                    )
                # Publish the op before reading the flag, as kill()
                # sets the flag before reading the op: whichever runs
                # second sees the other, so no kill is ever missed.
                handle.waiting = op
                if handle.killed:
                    return
                value = op.run()
                if handle.killed:
                    return
        except StopIteration:
            pass
        except KilledNode:
            pass  # fail-stop injection: the node is simply gone
        except BaseException as error:  # noqa: BLE001 - reported on join
            handle.error = error

    def join_all(self, timeout: float | None = None) -> None:
        """Wait for every spawned node; re-raises the first node error."""
        for handle in self.handles:
            handle.join(timeout)

    def make_lock(self, name: str = ""):
        from repro.runtime.sync import ThreadLock

        return ThreadLock(name=name)

    def make_queue(self, name: str = ""):
        from repro.runtime.sync import ThreadQueue

        return ThreadQueue(name=name)
