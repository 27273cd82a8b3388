"""Metrics collection (Section VI-A's evaluation metrics).

The paper reports, per run:

* **average production delay** — for an output tuple joining ``s1`` and
  ``s2`` with ``s1.t > s2.t``, the delay is ``Tclock - s1.t`` at the
  moment the output is produced;
* **communication time** — time a node spends sending/receiving;
* **idle time** — time a node waits for its communication slot;
* **total CPU time** — join processing work;
* **window size within a node** — storage held by a slave.

All recordings are gated on a shared *measurement window*: the paper
starts gathering after a warm-up equal to the window length so windows
are full and the system is in steady state.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.obs.metrics import counter, gauge, histogram

#: Log-spaced delay histogram edges, seconds (1 ms .. ~17 min).
DELAY_BIN_EDGES: npt.NDArray[np.float64] = np.logspace(-3, 3, 61)

#: CPU charge kind -> the :class:`SlaveMetrics` account it accrues to.
_CPU_ACCOUNT: t.Final = {
    "probe": "cpu_probe",
    "expire": "cpu_expire",
    "tune": "cpu_tuning",
    "state_move": "cpu_state_move",
}


def _cpu_account(kind: str) -> str:
    try:
        return _CPU_ACCOUNT[kind]
    except KeyError:
        raise ValueError(f"unknown cpu kind {kind!r}") from None


class MeasurementWindow:
    """Shared gate: records count only inside ``[start, stop]``."""

    __slots__ = ("start", "stop")

    def __init__(self, start: float, stop: float = float("inf")) -> None:
        self.start = float(start)
        self.stop = float(stop)

    def active(self, now: float) -> bool:
        return self.start <= now <= self.stop

    def overlap(self, t0: float, t1: float) -> float:
        """Length of ``[t0, t1]`` inside the measurement window."""
        return max(0.0, min(t1, self.stop) - max(t0, self.start))


class DelayStats:
    """Streaming statistics over production delays."""

    __slots__ = ("count", "total", "minimum", "maximum", "histogram")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0
        self.histogram = np.zeros(len(DELAY_BIN_EDGES) + 1, dtype=np.int64)

    def record(self, delays: npt.NDArray[np.float64]) -> None:
        n = len(delays)
        if n == 0:
            return
        self.count += n
        self.total += float(delays.sum())
        self.minimum = min(self.minimum, float(delays.min()))
        self.maximum = max(self.maximum, float(delays.max()))
        self.histogram += np.bincount(
            np.searchsorted(DELAY_BIN_EDGES, delays), minlength=len(self.histogram)
        )[: len(self.histogram)]

    def copy(self) -> "DelayStats":
        out = DelayStats()
        out.merge(self)
        return out

    def merge(self, other: "DelayStats") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.histogram += other.histogram

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile from the log-spaced histogram.

        Interpolates linearly within the bin the *q*-th sample falls
        into; ``q >= 100`` returns the exact observed maximum.  The
        result is clamped to the observed ``[minimum, maximum]`` so the
        histogram's fixed edges never widen the reported range.
        """
        if self.count == 0:
            return 0.0
        if q >= 100.0:
            return self.maximum
        target = max(q, 0.0) / 100.0 * self.count
        cum = np.cumsum(self.histogram)
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, len(self.histogram) - 1)
        below = float(cum[idx - 1]) if idx > 0 else 0.0
        in_bin = float(cum[idx]) - below
        frac = (target - below) / in_bin if in_bin > 0 else 0.0
        lo = float(DELAY_BIN_EDGES[idx - 1]) if idx > 0 else 0.0
        hi = (
            float(DELAY_BIN_EDGES[idx])
            if idx < len(DELAY_BIN_EDGES)
            else self.maximum
        )
        value = lo + frac * (hi - lo)
        return float(min(max(value, self.minimum), self.maximum))

    def snapshot(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class CommAccount:
    """Gated communication account of one node: what the transports
    record against (:class:`~repro.net.comm.CommStats`).

    The collector's metrics are exactly this; :class:`SlaveMetrics` and
    :class:`MasterMetrics` add their own counters on top.
    """

    def __init__(self, gate: MeasurementWindow) -> None:
        self.gate = gate
        self.comm_time = 0.0
        self.idle_time = 0.0
        self.bytes_received = 0
        self.bytes_sent = 0
        self.messages = 0

    def record_comm(self, t0: float, t1: float, nbytes: int, sent: bool) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.comm_time += span
        if self.gate.active(t1):
            self.messages += 1
            if sent:
                self.bytes_sent += nbytes
            else:
                self.bytes_received += nbytes

    def record_idle(self, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            self.idle_time += span


#: Outputs recorded together: their emit time (one, or one per row)
#: and the arrival times of their newer joining tuples.
_Outputs = tuple[float | npt.NDArray[np.float64], npt.NDArray[np.float64]]


def _binned(stash: list[_Outputs]) -> DelayStats:
    """The production delays of the stashed outputs, binned in one go."""
    batch = DelayStats()
    if stash:
        batch.record(np.concatenate([emit - newer for emit, newer in stash]))
    return batch


class SlaveMetrics(CommAccount):
    """Per-slave counters, gated on the measurement window.

    These plain attributes are the only place a slave's numbers are
    counted: :meth:`snapshot` feeds ``RunResult.slaves`` and the
    figures, :meth:`series` renders the typed view behind ``/metrics``,
    ``--metrics`` and ``RunResult.node_metrics`` when asked for.
    """

    def __init__(self, node_id: int, gate: MeasurementWindow) -> None:
        super().__init__(gate)
        self.node_id = node_id
        #: ``(reported, stash)``: the delays of every output already
        #: reported to the collector, binned, and the ``(emit_time,
        #: newer_ts)`` of those recorded since — the emit time one
        #: instant or one per row: :meth:`record_outputs` runs once per
        #: retired run of work units, binning once per report.  The
        #: pair is replaced whole and ``reported`` never changes once
        #: published, so a reader on another thread (the admin
        #: endpoint) takes a consistent view without a lock.
        self._recorded: tuple[DelayStats, list[_Outputs]] = (DelayStats(), [])
        # CPU accounting (seconds of modeled work inside the gate).
        self.cpu_probe = 0.0
        self.cpu_expire = 0.0
        self.cpu_tuning = 0.0
        self.cpu_state_move = 0.0
        # Window / buffer accounting.
        self.max_window_bytes = 0
        #: Last sampled values (ungated: they describe *now*).
        self.window_bytes = 0
        self.occupancy = 0.0
        self.tuples_processed = 0
        self.outputs_emitted = 0
        self.splits = 0
        self.merges = 0
        self.disk_bytes_read = 0
        #: (probe_seq_or_s1, window_seq_or_s2) pairs, test mode only,
        #: keyed by owning partition so replication can flush a pid's
        #: output upstream when its state leaves this slave.
        self.pairs: dict[int, list[npt.NDArray[np.int64]]] = {}

    # -- recording -----------------------------------------------------------
    @property
    def cpu_total(self) -> float:
        return (
            self.cpu_probe + self.cpu_expire + self.cpu_tuning + self.cpu_state_move
        )

    def charge_cpu(self, kind: str, t0: float, t1: float) -> None:
        span = self.gate.overlap(t0, t1)
        if span > 0.0:
            attr = _cpu_account(kind)
            setattr(self, attr, getattr(self, attr) + span)

    def charge_cpu_units(
        self, kind: str, t0: float, ends: npt.NDArray[np.float64]
    ) -> None:
        """Charge a run of back-to-back work units: the first starts at
        *t0*, unit ``i`` ends at ``ends[i]`` where unit ``i + 1`` starts.

        Each unit is gated on its own, as by :meth:`charge_cpu`, and the
        spans are added one after the other in unit order, so the
        account reads to the bit what one call per unit leaves.
        """
        gate = self.gate
        if ends[-1] <= gate.start:
            return
        attr = _cpu_account(kind)
        total, start = getattr(self, attr), t0
        # A run is a handful of units: a loop over floats beats a dozen
        # array calls, and is the per-unit arithmetic itself.
        for end in ends.tolist():
            span = gate.overlap(start, end)
            if span > 0.0:
                total += span
            start = end
        setattr(self, attr, total)

    def record_outputs(
        self,
        emit_time: float | npt.NDArray[np.float64],
        newer_ts: npt.NDArray[np.float64],
    ) -> None:
        """Record output tuples produced at *emit_time* — one instant
        for all of them, or one per row — whose newer joining tuple
        arrived at *newer_ts*.  Rows emitted outside the measurement
        window are not recorded."""
        if len(newer_ts) == 0:
            return
        gate = self.gate
        if isinstance(emit_time, np.ndarray):
            if emit_time.min() < gate.start or emit_time.max() > gate.stop:
                inside = (emit_time >= gate.start) & (emit_time <= gate.stop)
                emit_time, newer_ts = emit_time[inside], newer_ts[inside]
                if len(newer_ts) == 0:
                    return
        elif not gate.active(emit_time):
            return
        self.outputs_emitted += len(newer_ts)
        self._recorded[1].append((emit_time, newer_ts))

    @property
    def delays(self) -> DelayStats:
        """Production delays of every output recorded so far (binned
        afresh from a copy of the stash: reading changes nothing)."""
        reported, stash = self._recorded
        if not stash:
            return reported
        delays = reported.copy()
        delays.merge(_binned(list(stash)))
        return delays

    def pop_unreported(self) -> DelayStats:
        """Drain the outputs accumulated since the last collector report
        (same gating as ``delays``, so collector totals match local
        totals exactly)."""
        reported, stash = self._recorded
        batch = _binned(stash)
        if stash:
            reported = reported.copy()
            reported.merge(batch)
            self._recorded = (reported, [])
        return batch

    def record_pairs(self, pid: int, rows: npt.NDArray[np.int64]) -> None:
        """File collected join pairs under their partition."""
        self.pairs.setdefault(pid, []).append(rows)

    def pair_chunks(self) -> list[npt.NDArray[np.int64]]:
        """All collected pair chunks, in deterministic (pid) order."""
        return [c for pid in sorted(self.pairs) for c in self.pairs[pid]]

    def pop_pairs(self, pid: int) -> npt.NDArray[np.int64] | None:
        """Drain partition *pid*'s collected pairs (``None`` if none).

        Called when the pid's state leaves this slave — checkpoint or
        move — so the output travels with the state and survives a
        later crash of this node.
        """
        chunks = self.pairs.pop(pid, None)
        if not chunks:
            return None
        return np.concatenate(chunks)

    def sample_window(self, now: float, window_bytes: int) -> None:
        if self.gate.active(now):
            self.max_window_bytes = max(self.max_window_bytes, window_bytes)
        self.window_bytes = window_bytes

    def sample_occupancy(self, now: float, occupancy: float) -> None:
        # Occupancy drives the load balancer at all times, so the last
        # sample is kept unconditionally (no gate); its history is the
        # sampler's ``n<node>.occupancy`` series.
        self.occupancy = occupancy

    def snapshot(self) -> dict[str, t.Any]:
        return {
            "node": self.node_id,
            "cpu_total": self.cpu_total,
            "cpu_probe": self.cpu_probe,
            "cpu_expire": self.cpu_expire,
            "cpu_tuning": self.cpu_tuning,
            "cpu_state_move": self.cpu_state_move,
            "comm_time": self.comm_time,
            "idle_time": self.idle_time,
            "bytes_received": self.bytes_received,
            "bytes_sent": self.bytes_sent,
            "messages": self.messages,
            "max_window_bytes": self.max_window_bytes,
            "outputs": self.outputs_emitted,
            "tuples_processed": self.tuples_processed,
            "splits": self.splits,
            "merges": self.merges,
            "disk_bytes_read": self.disk_bytes_read,
            "delay": self.delays.snapshot(),
        }

    def series(self) -> dict[str, dict[str, t.Any]]:
        """Typed view of the headline counters, built when asked for.

        The delay histogram is exported on :data:`DELAY_BIN_EDGES`
        itself (upper bounds; the last count is the ``+Inf`` tail).
        """
        return {
            "outputs": counter(self.outputs_emitted),
            "production_delay_seconds": histogram(
                DELAY_BIN_EDGES.tolist(),
                self.delays.histogram.tolist(),
                self.delays.total,
            ),
            "messages": counter(self.messages),
            "bytes_sent": counter(self.bytes_sent),
            "bytes_received": counter(self.bytes_received),
            "window_bytes": gauge(self.window_bytes),
            "occupancy": gauge(self.occupancy),
        }


class MasterMetrics(CommAccount):
    """Master-side counters."""

    def __init__(self, gate: MeasurementWindow) -> None:
        super().__init__(gate)
        self.max_buffer_bytes = 0
        #: Last sampled partition-buffer backlog (ungated).
        self.buffer_bytes = 0
        self.tuples_ingested = 0
        self.epochs = 0
        self.reorgs = 0
        self.moves_ordered = 0
        self.dod_changes: list[tuple[float, int]] = []
        self.supplier_counts: list[tuple[float, int, int, int]] = []
        #: Payload bytes shipped for state replication (tee + forwarded
        #: checkpoints).  Ungated: the fault benchmarks report total
        #: overhead, not just the steady-state share.
        self.replication_bytes = 0

    def sample_buffer(self, now: float, nbytes: int) -> None:
        if self.gate.active(now):
            self.max_buffer_bytes = max(self.max_buffer_bytes, nbytes)
        self.buffer_bytes = nbytes

    def series(self) -> dict[str, dict[str, t.Any]]:
        """Typed view of the coordinator counters (``dead_slaves`` is
        the owning node's to add: the dead set lives on the master)."""
        return {
            "epochs": counter(self.epochs),
            "reorgs": counter(self.reorgs),
            "tuples_ingested": counter(self.tuples_ingested),
            "replication_bytes": counter(self.replication_bytes),
            "buffer_bytes": gauge(self.buffer_bytes),
        }
