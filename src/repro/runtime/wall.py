"""Wall-clock runtime: the DES kernel paced by the wall clock.

The runtime of the thread backend and of every process/tcp node: the
very same master/slave/collector generators that run on the simulated
clock are driven here by the same :class:`~repro.simul.kernel.Simulator`,
on one OS thread, exchanging messages over the framed socket channels
of :mod:`repro.net.proc_transport` — socket pairs inside this process
for the thread backend, across processes or hosts for the others.

Kernel time *is* modeled wall time: :meth:`WallRuntime.run` processes
every event due at or before the current wall instant, then blocks in
one ``selectors`` call until the next event falls due or a channel
becomes ready (the shape of SimPy's ``RealtimeEnvironment``).  Timers
are scheduled from the wall clock's reading, never the kernel's, so a
wait never ends before its wall instant.

``time_scale`` compresses time: with ``time_scale=0.1`` a simulated
second lasts 100 wall milliseconds, so a 60-second scenario demos in 6.
"""

from __future__ import annotations

import selectors
import time
import typing as t

import numpy as np
import numpy.typing as npt

from repro.runtime.sim import SimRuntime
from repro.simul.events import Event
from repro.simul.kernel import Simulator
from repro.simul.process import Process

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SystemConfig


def wall_budget(cfg: "SystemConfig") -> float:
    """Wall seconds a wall-clock run may take: the modeled horizon plus
    slack for numpy work, which the compressed clock does not shrink."""
    return cfg.run_seconds * cfg.time_scale * 4.0 + 60.0


class WallRuntime(SimRuntime):
    """:class:`~repro.runtime.sim.SimRuntime` on a wall clock.

    A subclass rather than a clock parameter, so the simulated path
    keeps its instructions: only the timers differ, and each is
    overridden here.  Locks, queues, events and processes are the
    kernel's own.

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
        super().__init__(Simulator())
        self.time_scale = time_scale
        #: What the loop waits on besides timers: the transports
        #: register their sockets here, each with its ready callback.
        self.selector = selectors.DefaultSelector()
        self._origin = time.monotonic()
        #: Whether t=0 is fixed; if not, the first spawn fixes it.
        self._anchored = False
        self._spawned: list[Process] = []

    def rebase(self, origin: float) -> None:
        """Move modeled t=0 to the given ``time.monotonic()`` value.

        Only valid before any generator is spawned (the process backend
        rebases after its start barrier, once every node is built)."""
        if self._spawned:
            raise RuntimeError("cannot rebase a runtime with live processes")
        self._origin = origin
        self._anchored = True

    # -- Runtime protocol ---------------------------------------------------
    def now(self) -> float:
        return (time.monotonic() - self._origin) / self.time_scale

    def _at(self, deadline: float, value: t.Any = None) -> Event:
        # The kernel lags the wall clock by at most one loop turn, so a
        # deadline already past fires at the loop's next turn.
        return self.sim.timeout_at(max(deadline, self.sim.now), value)

    def sleep(self, delay: float) -> Event:
        return self._at(self.now() + max(0.0, delay))

    def sleep_until(self, deadline: float) -> Event:
        return self._at(deadline)

    def cpu(self, cost: float) -> Event:
        return self.sleep(cost)

    def cpu_units(
        self, costs: npt.NDArray[np.float64], until: float = float("inf")
    ) -> Event:
        # No future to consult on a wall clock: one wait for the whole
        # run, and every unit exists from the instant the loop wakes.
        # The stamping callback is registered before the waiting
        # process's, so the stamps are in place when it resumes.
        stamps = np.empty(len(costs))
        event = self._at(self.now() + float(costs.sum()), stamps)
        event.add_callback(lambda _event: stamps.fill(self.now()))
        return event

    def spawn(self, generator: t.Generator, name: str = "") -> Process:
        if not self._anchored:
            self.rebase(time.monotonic())
        process = self.sim.process(generator, name=name)
        self._spawned.append(process)
        return process

    # -- the loop -------------------------------------------------------------
    def run(self, budget: float) -> None:
        """Drive the spawned processes until every one has finished, or
        for at most *budget* wall seconds (the caller reports whatever
        is still alive then).  A node error propagates out of here."""
        sim, selector = self.sim, self.selector
        deadline = time.monotonic() + budget
        while True:
            sim.run(until=max(self.now(), sim.now))
            if not any(process.is_alive for process in self._spawned):
                return
            wake = min(self._origin + sim.peek() * self.time_scale, deadline)
            wait = wake - time.monotonic()
            if wait <= 0.0 and wake >= deadline:
                return
            for key, mask in selector.select(max(0.0, wait)):
                key.data(mask)
