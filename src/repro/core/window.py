"""One stream's window data inside a mini-partition-group.

A :class:`StreamWindow` holds:

* the **committed** window tuples, in temporal (arrival) order so blocks
  expire from the front — the reason the paper rejects sort-based join
  algorithms (Section IV-D);
* the **fresh head block**: up to one block of newly added tuples that
  have not yet participated in a join.  Fresh tuples are excluded when
  the *opposite* stream probes this window (the paper's duplicate
  elimination rule) and are probed themselves when the head block fills
  or the stream buffer drains (:meth:`flush` is called by the join
  module at those points).

A probe (:meth:`StreamWindow.probe`) binary-searches the window's
key-sorted *run* (:meth:`StreamWindow.sorted_view`), which is kept
incrementally — committed head blocks are merged in, expired tuples
masked out, the live window never re-sorted.  The run is derived state:
never serialized, rebuilt from the committed tuples wherever a window
is installed.  The *computed* match set is exact; the simulated CPU
*charged* per probe is the paper's block nested-loop scan over
:attr:`StreamWindow.committed_bytes`
(:meth:`repro.core.costmodel.CostModel.probe_cost`), not the cost of
this structure.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.core.probe import ProbeResult, probe_sorted
from repro.data.blocks import block_bytes_used, n_blocks
from repro.data.soa import GrowableSoA
from repro.data.tuples import (
    KEY_DTYPE,
    SEQ_DTYPE,
    TS_DTYPE,
    KeyArray,
    SeqArray,
    TsArray,
    TupleBatch,
)


class StreamWindow:
    """Committed window + fresh head block for one stream."""

    __slots__ = (
        "stream_id",
        "tuples_per_block",
        "block_bytes",
        "committed",
        "_fresh_ts",
        "_fresh_key",
        "_fresh_seq",
        "_fresh_n",
        "_run",
        "_run_synced",
        "_run_floor",
    )

    def __init__(
        self, stream_id: int, tuples_per_block: int, block_bytes: int
    ) -> None:
        self.stream_id = int(stream_id)
        self.tuples_per_block = int(tuples_per_block)
        self.block_bytes = int(block_bytes)
        self.committed = GrowableSoA()
        self._fresh_ts = np.empty(tuples_per_block, TS_DTYPE)
        self._fresh_key = np.empty(tuples_per_block, KEY_DTYPE)
        self._fresh_seq = np.empty(tuples_per_block, SEQ_DTYPE)
        self._fresh_n = 0
        #: Committed tuples in stable key order, as columns ``(key, ts,
        #: seq, SoA logical id)``, synced pull-style from the SoA's
        #: counters: ``_run_synced``/``_run_floor`` are its
        #: ``appended_total``/``expired_total`` at the last sync.
        self._run: tuple[npt.NDArray[t.Any], ...] = (
            np.empty(0, KEY_DTYPE),
            np.empty(0, TS_DTYPE),
            np.empty(0, SEQ_DTYPE),
            np.empty(0, np.int64),
        )
        self._run_synced = 0
        self._run_floor = 0

    # -- sizes -----------------------------------------------------------
    @property
    def n_committed(self) -> int:
        return len(self.committed)

    @property
    def n_fresh(self) -> int:
        return self._fresh_n

    @property
    def n_tuples(self) -> int:
        return len(self.committed) + self._fresh_n

    def bytes_used(self, tuple_bytes: int) -> int:
        """Block-granular footprint (partial head block counts whole)."""
        return block_bytes_used(
            self.n_tuples, self.tuples_per_block, self.block_bytes
        )

    @property
    def committed_blocks(self) -> int:
        return n_blocks(len(self.committed), self.tuples_per_block)

    @property
    def committed_bytes(self) -> int:
        """Block-granular bytes a probe of the opposite stream scans."""
        return self.committed_blocks * self.block_bytes

    # -- head-block protocol ------------------------------------------------
    def head_space(self) -> int:
        """Tuples the head block can still accept before it is full."""
        return self.tuples_per_block - self._fresh_n

    def append_fresh(self, ts: TsArray, key: KeyArray, seq: SeqArray) -> None:
        """Add tuples to the head block (must fit; see :meth:`head_space`)."""
        n = len(ts)
        if n == 0:
            return
        if n > self.head_space():
            raise ValueError(
                f"head block overflow: {n} tuples into {self.head_space()} slots"
            )
        f = self._fresh_n
        self._fresh_ts[f : f + n] = ts
        self._fresh_key[f : f + n] = key
        self._fresh_seq[f : f + n] = seq
        self._fresh_n = f + n

    def fresh_view(self) -> tuple[TsArray, KeyArray, SeqArray]:
        """(ts, key, seq) views of the current fresh tuples."""
        f = self._fresh_n
        return self._fresh_ts[:f], self._fresh_key[:f], self._fresh_seq[:f]

    def flush(self, opposite: "StreamWindow", window_seconds: float,
              collect_pairs: bool = False) -> ProbeResult:
        """Join the fresh tuples against *opposite*'s committed window
        and commit them.

        Fresh tuples of *opposite* are excluded (duplicate elimination):
        they will produce those pairs themselves when they flush, by
        which time this window's tuples are committed.
        """
        ts, key, seq = self.fresh_view()
        result = opposite.probe(
            ts, key, seq, window_seconds, collect_pairs=collect_pairs
        )
        self.commit_fresh()
        return result

    # -- probing ----------------------------------------------------------
    # perf/spans.py wraps this method as its ``kernel.probe`` span, found
    # by the name ``probe`` through :mod:`repro.core.kernels`: keep the
    # name and the call boundary until a ``benchmark`` PR re-points it.
    def probe(
        self,
        probe_ts: TsArray,
        probe_key: KeyArray,
        probe_seq: SeqArray,
        window_seconds: float,
        collect_pairs: bool = False,
    ) -> ProbeResult:
        """Match *probe* tuples against this window's committed tuples.

        A committed tuple ``c`` matches probe tuple ``p`` iff ``c.key ==
        p.key`` and ``|c.ts - p.ts| <= window_seconds`` — the boundary
        is *inclusive* on both sides.
        """
        sorted_key, sorted_ts, sorted_seq = self.sorted_view(
            need_seq=collect_pairs
        )
        return probe_sorted(
            probe_ts,
            probe_key,
            probe_seq,
            sorted_key,
            sorted_ts,
            sorted_seq,
            window_seconds,
            collect_pairs=collect_pairs,
        )

    def sorted_view(
        self, need_seq: bool = False
    ) -> tuple[KeyArray, TsArray, SeqArray | None]:
        """Committed tuples sorted by key: ``(key, ts, seq-or-None)``.

        Used by :meth:`probe` and the n-way composite prober; valid
        until the next mutation of this window.

        The order is exactly ``argsort(committed.key, kind="stable")``,
        but the live window is never re-sorted: tuples expired since the
        last call are masked out by logical id, tuples committed since
        are sorted on their own and merged in after their equal keys.
        Only a window none of whose tuples the run holds yet (first use,
        a state install, a split/merge child) is sorted whole.
        """
        soa = self.committed
        appended, expired = soa.appended_total, soa.expired_total
        run = self._run
        if expired != self._run_floor:
            live = run[3] >= expired
            run = tuple(col[live] for col in run)
        first_new = max(self._run_synced, expired)
        if first_new < appended:
            tail = first_new - expired
            new_key = soa.key[tail:]
            order = np.argsort(new_key, kind="stable")
            new = (
                new_key[order],
                soa.ts[tail:][order],
                soa.seq[tail:][order],
                order + first_new,
            )
            if len(run[0]):
                # side="right": a new tuple lands after the old tuples
                # of its key, where the stable sort would put it.
                slots = np.searchsorted(run[0], new[0], side="right")
                slots += np.arange(len(order))
                is_old = np.ones(len(run[0]) + len(order), dtype=np.bool_)
                is_old[slots] = False
                run = tuple(
                    _spliced(o, n, is_old, slots) for o, n in zip(run, new)
                )
            else:
                run = new
        self._run, self._run_synced, self._run_floor = run, appended, expired
        return run[0], run[1], run[2] if need_seq else None

    def commit_fresh(self) -> None:
        """Move the fresh head block to committed without probing
        (the n-way prober has already matched it)."""
        ts, key, seq = self.fresh_view()
        if self._fresh_n:
            self.committed.append(ts, key, seq)
            self._fresh_n = 0

    # -- expiry -------------------------------------------------------------
    def expire_before(self, cutoff_ts: float) -> int:
        """Drop committed tuples older than *cutoff_ts*; returns count.

        Fresh tuples never expire: they arrived within the current
        epoch, and the window length is far larger than an epoch.
        """
        return self.committed.expire_before(cutoff_ts)

    # -- state movement --------------------------------------------------------
    def extract_all(self) -> tuple[TupleBatch, TupleBatch]:
        """Remove and return ``(committed, fresh)`` for the state mover."""
        committed = self.committed.pop_all()
        ts, key, seq = self.fresh_view()
        fresh = TupleBatch(
            ts.copy(),
            key.copy(),
            seq.copy(),
            np.full(self._fresh_n, self.stream_id, dtype=np.uint8),
        )
        self._fresh_n = 0
        return committed, fresh

    def snapshot_all(self) -> tuple[TupleBatch, TupleBatch]:
        """Non-destructive copy of ``(committed, fresh)`` for the
        replication checkpointer; the window keeps its state."""
        committed = self.committed.snapshot(self.stream_id)
        ts, key, seq = self.fresh_view()
        fresh = TupleBatch(
            ts.copy(),
            key.copy(),
            seq.copy(),
            np.full(self._fresh_n, self.stream_id, dtype=np.uint8),
        )
        return committed, fresh

    def install_committed(self, batch: TupleBatch) -> None:
        """Install moved committed tuples (consumer side of a state move)."""
        self.committed.append(batch.ts, batch.key, batch.seq)


def _spliced(
    old: npt.NDArray[t.Any],
    new: npt.NDArray[t.Any],
    is_old: npt.NDArray[np.bool_],
    slots: npt.NDArray[np.intp],
) -> npt.NDArray[t.Any]:
    """*old* and *new* interleaved: *new* at *slots*, *old* elsewhere."""
    out = np.empty(len(is_old), old.dtype)
    out[is_old] = old
    out[slots] = new
    return out
