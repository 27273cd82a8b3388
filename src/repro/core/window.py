"""One stream's window data inside a mini-partition-group.

A :class:`StreamWindow` holds:

* the **committed** window tuples, in temporal (arrival) order so blocks
  expire from the front — the reason the paper rejects sort-based join
  algorithms (Section IV-D);
* the **fresh head block**: up to one block of newly added tuples that
  have not yet participated in a join.  Fresh tuples are excluded when
  the *opposite* stream probes (the paper's duplicate elimination rule)
  and are probed themselves when the head block fills or the stream
  buffer drains; :meth:`StreamWindow.commit_fresh` then moves them to
  the committed side.

That is all a window knows.  It is the paper's storage and accounting
granularity: what a probe is *charged* is the block nested-loop scan of
:attr:`StreamWindow.committed_bytes`
(:meth:`repro.core.costmodel.CostModel.probe_cost`).  What a probe
*searches* is kept one level up, by the partition-group
(:meth:`repro.core.partition_group.PartitionGroup.probe`): one
key-sorted run per stream over the committed tuples of all its
mini-groups.
"""

from __future__ import annotations

import numpy as np

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

    @property
    def bytes_used(self) -> int:
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

    def absorb(
        self, ts: TsArray, key: KeyArray, seq: SeqArray, n_commit: int
    ) -> None:
        """Admit tuples behind those in the head block, then commit the
        first *n_commit* of head-block-and-arrivals together — every
        block the arrivals fill, in one append — and keep the rest (at
        most a block) as the new head block.

        What a pass of :meth:`append_fresh` / :meth:`commit_fresh` per
        block leaves, for a caller that has computed the blocks' matches
        already.  *n_commit* is 0 or covers at least the present head.
        """
        if n_commit:
            take = n_commit - self._fresh_n
            self.commit_fresh()
            self.committed.append(ts[:take], key[:take], seq[:take])
            ts, key, seq = ts[take:], key[take:], seq[take:]
        self.append_fresh(ts, key, seq)

    def fresh_view(self) -> tuple[TsArray, KeyArray, SeqArray]:
        """(ts, key, seq) views of the current fresh tuples."""
        f = self._fresh_n
        return self._fresh_ts[:f], self._fresh_key[:f], self._fresh_seq[:f]

    def commit_fresh(self) -> None:
        """Move the fresh head block to the committed side (its matches
        have been computed by then)."""
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

