"""Saving and replaying workload traces.

Deterministic replay across processes/machines: a generated workload can
be flushed to an ``.npz`` file and replayed later, which is how the
thread-runtime examples feed the exact same tuples as a simulated run.
"""

from __future__ import annotations

import os

import numpy as np

from repro.data.tuples import TupleBatch


def save_trace(path: str | os.PathLike, batch: TupleBatch) -> None:
    """Write a batch to *path* as a compressed ``.npz`` archive."""
    np.savez_compressed(
        os.fspath(path),
        ts=batch.ts,
        key=batch.key,
        seq=batch.seq,
        stream=batch.stream,
    )


def load_trace(path: str | os.PathLike) -> TupleBatch:
    """Load a batch previously written by :func:`save_trace`."""
    with np.load(os.fspath(path)) as data:
        return TupleBatch(data["ts"], data["key"], data["seq"], data["stream"])


class TraceReplayer:
    """Replays a recorded trace epoch by epoch (drop-in for a workload)."""

    def __init__(self, batch: TupleBatch) -> None:
        # A trace already in time order (any generated or saved one) is
        # kept as it is: a stable argsort of it would be the identity.
        if not np.all(batch.ts[1:] >= batch.ts[:-1]):
            batch = batch.take(np.argsort(batch.ts, kind="stable"))
        self.batch = batch
        self._cursor = 0

    def replica(self) -> "TraceReplayer":
        """An independent replayer over the same trace (fresh cursor).

        Used by the standby's shadow master, which replays the exact
        tuple sequence the real master generates.  The batch is shared,
        not copied.
        """
        return TraceReplayer(self.batch)

    def generate(self, t0: float, t1: float) -> TupleBatch:
        """Tuples with ``t0 <= ts < t1`` (must be called in time order)."""
        ts = self.batch.ts
        start = self._cursor
        stop = int(np.searchsorted(ts, t1, side="left"))
        if start > stop:
            raise ValueError("TraceReplayer must be read in increasing time order")
        self._cursor = stop
        out = self.batch.slice(start, stop)
        return out.select(out.ts >= t0) if start == 0 else out
