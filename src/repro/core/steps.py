"""Steps of join work, and the one loop that turns them into time.

A join module (or a baseline's hand-rolled join) does not hand its
driver one object per work unit.  It hands out :class:`Step`\\ s: runs
of units whose modeled costs are all known when the run starts, as one
array, with one ``retire`` that applies any contiguous stretch of them
in array operations.  :func:`run_steps` is the only place in the
package where those costs become awaited time and CPU charges.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.metrics import SlaveMetrics

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: ``retire(lo, hi, emit_times)``: apply units ``[lo, hi)``, unit
#: ``lo + i`` having completed at ``emit_times[i]``.
Retire = t.Callable[[int, int, FloatArray], None]

#: ``slowdown(now, costs) -> (costs in effect at now, valid until)``.
Slowdown = t.Callable[[float, FloatArray], tuple[FloatArray, float]]


class Step:
    """A run of work units costed up front.

    ``kind`` names the CPU account the units are charged to (``probe``,
    ``expire`` or ``tune``), ``costs`` holds one modeled cost per unit,
    fixed when the step was generated, and ``retire`` applies units: the
    driver calls it with consecutive ranges ``[lo, hi)`` that together
    cover the step exactly once, in order.  Whoever yields a step must
    not look at the state it touches again before it is fully retired.
    """

    __slots__ = ("kind", "costs", "retire")

    def __init__(self, kind: str, costs: FloatArray, retire: Retire) -> None:
        self.kind = kind
        self.costs = costs
        self.retire = retire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Step {self.kind} x{len(self.costs)}>"


def run_steps(
    rt: t.Any,
    metrics: SlaveMetrics,
    steps: t.Iterable[Step],
    slowdown: Slowdown | None = None,
) -> t.Generator[t.Any, FloatArray, None]:
    """Node-generator fragment: work through *steps* on runtime *rt*.

    Each turn hands the runtime the costs not yet accounted for and gets
    back the emit times of the prefix it could take in one wait
    (:meth:`repro.runtime.base.Runtime.cpu_units`): on the simulated
    backend the units that end strictly before any other event, on a
    wall clock the whole step.  That prefix is charged unit by unit and
    retired, and the rest comes round again — a prefix of one is the
    unit-at-a-time loop, not another path.

    *slowdown* applies the fault plane's planned CPU slowdowns: it maps
    the costs to those in effect now and says until when they hold; the
    runtime ends the prefix there.
    """
    for step in steps:
        costs, lo = step.costs, 0
        while lo < len(costs):
            start = rt.now()
            todo, until = costs[lo:], float("inf")
            if slowdown is not None:
                todo, until = slowdown(start, todo)
            ends = yield rt.cpu_units(todo, until)
            metrics.charge_cpu_units(step.kind, start, ends)
            step.retire(lo, lo + len(ends), ends)
            lo += len(ends)
