"""The discrete-event simulation loop.

The :class:`Simulator` keeps a binary heap of ``(time, priority, serial,
event)`` entries.  The monotonically increasing *serial* guarantees FIFO
order among events scheduled for the same instant, which makes every run
fully deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import typing as t
from itertools import count

from repro.errors import DeadlockError, SimulationError
from repro.simul.events import AllOf, AnyOf, Event, Timeout
from repro.simul.process import Process

#: Default event priority.  Lower values are processed first among
#: events scheduled for the same simulated instant.
PRIORITY_NORMAL = 1
#: Priority used for "urgent" bookkeeping events (process resumption).
PRIORITY_URGENT = 0


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def clock(sim, tick):
            while True:
                yield sim.timeout(tick)
                print(sim.now)

        sim.process(clock(sim, 1.0))
        sim.run(until=10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._serial = count()
        self._active_processes = 0
        #: Where a numeric ``run(until=...)`` stops; ``inf`` otherwise.
        self._horizon = float("inf")

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: t.Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, at: float, value: t.Any = None) -> Event:
        """Create an event firing at the absolute time *at*.

        Exactly *at*: ``timeout(at - now)`` lands on ``now + (at - now)``,
        which in floats need not be *at* — a caller that computed an
        instant by its own arithmetic and must meet it to the bit
        schedules it here.
        """
        return Event(self, name="timeout_at").succeed(value, at=at)

    def process(
        self, generator: t.Generator[t.Any, t.Any, t.Any], name: str = ""
    ) -> Process:
        """Spawn a cooperative process driving *generator*."""
        return Process(self, generator, name=name)

    def any_of(self, events: t.Sequence[Event]) -> AnyOf:
        """Event firing when any of *events* fires."""
        return AnyOf(self, events)

    def all_of(self, events: t.Sequence[Event]) -> AllOf:
        """Event firing when all of *events* have fired."""
        return AllOf(self, events)

    # -- scheduling (kernel internal) -------------------------------------
    def _schedule(
        self,
        event: Event,
        delay: float = 0.0,
        priority: int = PRIORITY_NORMAL,
        at: float | None = None,
    ) -> None:
        """Queue *event* ``delay`` seconds from now, or — when given —
        at the absolute time *at*, taken as is."""
        if at is None:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past (delay={delay!r})"
                )
            at = self._now + delay
        elif at < self._now:
            raise SimulationError(
                f"cannot schedule in the past (at={at!r}, now={self._now!r})"
            )
        heapq.heappush(self._queue, (at, priority, next(self._serial), event))

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _, _, event = heapq.heappop(self._queue)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive; cannot requeue
            raise SimulationError(f"{event!r} processed twice")
        for callback in callbacks:
            callback(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def quiet_until(self) -> float:
        """The instant up to which nothing is scheduled to happen: the
        next queued event or the horizon of a numeric ``run(until=...)``,
        whichever is first (``inf`` when neither exists).

        Whatever the running process does **strictly before** this
        instant no other process can observe step by step, so it may be
        folded into one event.  An event *at* this instant is another
        matter: whether it runs before or after a queued one is decided
        by their FIFO serials, which only scheduling it can assign.
        """
        return min(self.peek(), self._horizon)

    def run(self, until: float | Event | None = None) -> t.Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until simulated time reaches it;
        * an :class:`Event` — run until that event is processed and
          return its value (raising if the event failed).

        Raises :class:`~repro.errors.DeadlockError` when the queue
        empties while waiting for an ``until`` event, which almost
        always indicates processes blocked on each other.
        """
        if until is None:
            while self._queue:
                self.step()
            return None

        if isinstance(until, Event):
            stop: list[Event] = []
            until.add_callback(stop.append)
            while not stop:
                if not self._queue:
                    raise DeadlockError(
                        f"event queue empty before {until!r} fired; "
                        f"{self._active_processes} process(es) still blocked"
                    )
                self.step()
            if not until.ok:
                raise until.value
            return until.value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon!r}, already at {self._now!r}"
            )
        self._horizon = horizon
        try:
            while self._queue and self._queue[0][0] <= horizon:
                self.step()
        finally:
            self._horizon = float("inf")
        self._now = horizon
        return None
