"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  It starts *pending*, becomes
*triggered* when given a value (or an exception) and scheduled on the
simulator queue, and *processed* once the kernel has run its callbacks.
Processes block on events by ``yield``\\ ing them (see
:mod:`repro.simul.process`).
"""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.kernel import Simulator

_PENDING = object()


def _require_exception(value: object) -> None:
    if not isinstance(value, BaseException):
        raise TypeError("fail() requires an exception instance")


class Event:
    """A one-shot occurrence on a :class:`~repro.simul.kernel.Simulator`.

    Callbacks are invoked in registration order when the event is
    processed by the kernel.  An event may *succeed* with a value or
    *fail* with an exception; a failed event re-raises its exception in
    every process waiting on it.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.callbacks: list[t.Callable[[Event], None]] | None = []
        self._value: t.Any = _PENDING
        self._ok = True
        self.name = name

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the queue."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def value(self) -> t.Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(
        self, value: t.Any = None, *, delay: float = 0.0, at: float | None = None
    ) -> "Event":
        """Trigger the event successfully with *value*.

        The event is scheduled ``delay`` simulated seconds in the future
        (default: immediately, i.e. at the current simulation time), or
        at the absolute time *at* when given.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay, at=at)
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger the event with an *exception*.

        Processes waiting on the event will have the exception thrown
        into them at their ``yield`` statement.
        """
        _require_exception(exception)
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: t.Callable[["Event"], None]) -> None:
        """Register *callback* to run when the event is processed.

        If the event was already processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: t.Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._schedule(self, delay)


class _Condition(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim: "Simulator", events: t.Sequence[Event]) -> None:
        super().__init__(sim, name=type(self).__name__)
        self.events = tuple(events)
        if any(ev.sim is not sim for ev in self.events):
            raise SimulationError("all condition events must share a simulator")
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._n_fired += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _collect(self) -> dict[Event, t.Any]:
        # Only events whose callbacks have run count as "fired" here —
        # a Timeout is *triggered* (scheduled, value set) from birth.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}


class AnyOf(_Condition):
    """Fires when *any* of the given events has fired.

    The value is a dict mapping each already-fired event to its value.
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_fired >= 1


class AllOf(_Condition):
    """Fires when *all* of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_fired == len(self.events)
