"""Simulated-time runtime backend."""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.simul.events import Event, Timeout
from repro.simul.kernel import Simulator
from repro.simul.process import Process


class SimRuntime:
    """Adapts the DES kernel to the :class:`~repro.runtime.base.Runtime`
    protocol.  Awaitables are kernel events."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def now(self) -> float:
        return self.sim.now

    def sleep(self, delay: float) -> Timeout:
        return self.sim.timeout(max(0.0, delay))

    def sleep_until(self, deadline: float) -> Timeout:
        return self.sim.timeout(max(0.0, deadline - self.sim.now))

    def cpu(self, cost: float) -> Timeout:
        return self.sim.timeout(max(0.0, cost))

    def cpu_units(
        self, costs: npt.NDArray[np.float64], until: float = float("inf")
    ) -> Event:
        # ``accumulate`` adds left to right from ``now``, so unit i ends
        # on the very float that i + 1 chained ``cpu`` timeouts reach.
        ends = np.add.accumulate(np.concatenate(((self.sim.now,), costs)))[1:]
        quiet = min(self.quiet_horizon(), until)
        # Never fewer than one unit: the one that ends at or past the
        # quiet horizon is scheduled on its own and takes its turn among
        # the events queued for that instant, as a lone ``cpu`` would.
        if ends[-1] >= quiet:
            ends = ends[: max(1, int(ends.searchsorted(quiet)))]
        return self.sim.timeout_at(float(ends[-1]), ends)

    def quiet_horizon(self) -> float:
        """Simulated instant before which no other event can run."""
        return self.sim.quiet_until()

    def spawn(self, generator: t.Generator, name: str = "") -> Process:
        return self.sim.process(generator, name=name)

    def event(self, name: str = "") -> Event:
        return self.sim.event(name)

    def make_lock(self, name: str = ""):
        from repro.runtime.sync import SimLock

        return SimLock(self.sim, name=name)

    def make_queue(self, name: str = ""):
        from repro.runtime.sync import SimQueue

        return SimQueue(self.sim, name=name)
