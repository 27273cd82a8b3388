"""Growable structure-of-arrays with cheap front expiry.

Window partitions append new tuples at the back and expire old tuples
from the front (temporal order).  :class:`GrowableSoA` implements this
with amortized O(1) appends (geometric growth), O(1) logical pops
(a start offset) and periodic compaction, following the
"views-not-copies" guidance of the HPC coding guides.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.data.tuples import (
    KEY_DTYPE,
    SEQ_DTYPE,
    TS_DTYPE,
    KeyArray,
    SeqArray,
    TsArray,
    TupleBatch,
)

_MIN_CAPACITY: t.Final = 64


class GrowableSoA:
    """Append-at-back / expire-at-front columnar tuple storage.

    Columns mirror :class:`~repro.data.tuples.TupleBatch` minus the
    stream id (a window partition belongs to exactly one stream).
    ``ts`` is non-decreasing by construction (tuples are appended in
    arrival order), which makes expiry a binary search.
    """

    __slots__ = ("_ts", "_key", "_seq", "_start", "_stop")

    _ts: TsArray
    _key: KeyArray
    _seq: SeqArray
    _start: int
    _stop: int

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._ts = np.empty(capacity, TS_DTYPE)
        self._key = np.empty(capacity, KEY_DTYPE)
        self._seq = np.empty(capacity, SEQ_DTYPE)
        self._start = 0
        self._stop = 0

    def __len__(self) -> int:
        return self._stop - self._start

    # -- views (valid until the next mutation) ------------------------------
    @property
    def ts(self) -> TsArray:
        return self._ts[self._start : self._stop]

    @property
    def key(self) -> KeyArray:
        return self._key[self._start : self._stop]

    @property
    def seq(self) -> SeqArray:
        return self._seq[self._start : self._stop]

    # -- mutation -------------------------------------------------------------
    def append(self, ts: TsArray, key: KeyArray, seq: SeqArray) -> None:
        """Append tuples (must not predate the current back of the store)."""
        n = len(ts)
        if n == 0:
            return
        if len(self) and ts[0] < self._ts[self._stop - 1]:
            raise ValueError(
                "appending out of temporal order: "
                f"{ts[0]!r} < {self._ts[self._stop - 1]!r}"
            )
        self._reserve(n)
        stop = self._stop
        self._ts[stop : stop + n] = ts
        self._key[stop : stop + n] = key
        self._seq[stop : stop + n] = seq
        self._stop = stop + n

    def count_before(self, cutoff_ts: float) -> int:
        """How many tuples :meth:`expire_before` would drop.

        Relies on ``ts`` being non-decreasing: a store whose oldest
        tuple is no older than the cutoff answers without a search.
        """
        if self._start == self._stop or self._ts[self._start] >= cutoff_ts:
            return 0
        return int(np.searchsorted(self.ts, cutoff_ts, side="left"))

    def expire_before(self, cutoff_ts: float) -> int:
        """Drop all tuples with ``ts < cutoff_ts``; returns count dropped."""
        idx = self.count_before(cutoff_ts)
        self._start += idx
        if self._start == self._stop:
            self._start = self._stop = 0
        elif self._start > max(_MIN_CAPACITY, len(self)):
            self._compact()
        return idx

    def pop_all(self) -> TupleBatch:
        """Remove and return the whole contents (used by the state mover)."""
        batch = self.snapshot()
        self._start = self._stop = 0
        return batch

    def snapshot(self, stream_id: int = 0) -> TupleBatch:
        """A copying :class:`TupleBatch` of the current contents."""
        n = len(self)
        return TupleBatch(
            self.ts.copy(),
            self.key.copy(),
            self.seq.copy(),
            np.full(n, stream_id, dtype=np.uint8),
        )

    # -- internal ---------------------------------------------------------------
    def _reserve(self, n: int) -> None:
        needed = self._stop + n
        if needed <= len(self._ts):
            return
        live = len(self)
        new_cap = max(len(self._ts) * 2, live + n, _MIN_CAPACITY)
        for name in ("_ts", "_key", "_seq"):
            old = getattr(self, name)
            fresh = np.empty(new_cap, old.dtype)
            fresh[:live] = old[self._start : self._stop]
            setattr(self, name, fresh)
        self._start, self._stop = 0, live

    def _compact(self) -> None:
        live = len(self)
        for name in ("_ts", "_key", "_seq"):
            arr = getattr(self, name)
            arr[:live] = arr[self._start : self._stop]
        self._start, self._stop = 0, live
