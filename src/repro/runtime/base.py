"""The runtime interface node code is written against."""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt


class Runtime(t.Protocol):
    """What a node loop may do besides communicating.

    Every method returning an *awaitable* must be ``yield``\\ ed by the
    node generator; the backend resumes the generator when the operation
    completes.  ``now`` is synchronous.
    """

    def now(self) -> float:
        """Current time (virtual or wall-clock seconds since start)."""
        ...  # pragma: no cover

    def sleep(self, delay: float) -> t.Any:
        """Awaitable that completes after *delay* seconds."""
        ...  # pragma: no cover

    def sleep_until(self, deadline: float) -> t.Any:
        """Awaitable that completes at *deadline* (immediately if past)."""
        ...  # pragma: no cover

    def cpu(self, cost: float) -> t.Any:
        """Awaitable modeling *cost* seconds of CPU work.

        On the simulated backend this advances virtual time exactly like
        :meth:`sleep`; the distinction exists so the thread backend can
        scale modeled work independently of protocol waits.
        """
        ...  # pragma: no cover

    def cpu_units(
        self, costs: npt.NDArray[np.float64], until: float = float("inf")
    ) -> t.Any:
        """Awaitable modeling a run of consecutive CPU work units.

        *costs* holds one modeled cost per unit.  The backend works
        through a non-empty **prefix** of them — as many as it can
        account for in one wait — and resumes the generator with that
        prefix's emit times, one per unit: the instants at which each
        unit's effects exist.  The caller retires exactly those units
        and comes back with the rest.

        The simulated backend takes the units that end strictly before
        anything else is scheduled to happen, and before *until* (the
        instant the caller's costs stop being valid, e.g. a planned
        slowdown boundary); their emit times are the running sum of the
        costs from :meth:`now`.  A wall-clock backend has no future to
        consult: it sleeps the summed cost once and reports the whole
        run at the ``now()`` it wakes at.
        """
        ...  # pragma: no cover

    def spawn(self, generator: t.Generator, name: str = "") -> t.Any:
        """Start another node-style generator concurrently."""
        ...  # pragma: no cover
