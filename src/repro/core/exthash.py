"""Extendible hashing directory (Fagin et al., TODS 1979).

The paper fine-tunes window partitions with extendible hashing
(Section IV-D): each partition-group owns a directory of
mini-partition-groups.  The directory has ``2**global_depth`` entries
indexed by the ``global_depth`` least-significant bits of the directory
hash ``g(k)``; each bucket (mini-partition-group) has a ``local_depth
<= global_depth`` and is pointed to by ``2**(global_depth -
local_depth)`` entries sharing its ``local_depth`` LSB *pattern*.

Splitting a bucket with ``local_depth < global_depth`` redistributes its
entries between two buckets of depth ``local_depth + 1``; splitting a
bucket at ``local_depth == global_depth`` doubles the directory first.

Buddy rule: with LSB indexing, the buddy of a bucket with pattern ``p``
and depth ``d'`` is the bucket with pattern ``p XOR 2**(d'-1)`` (flip
the most significant bit of the pattern).  The paper states the buddy
formula for a contiguous (MSB-indexed) directory layout; this is the
exact equivalent for the LSB layout it also prescribes.  Buckets merge
only when both have the same local depth.

The directory holds no tuples: a bucket is its ``(local_depth,
pattern)``, and what it holds is whatever hashes to it — so a split or a
merge is a relabelling (:mod:`repro.core.partition_group` keeps the
tuples, ordered so that every bucket is one range of them).
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError

#: Hard cap on the directory's global depth; prevents unbounded
#: splitting when a single hot key concentrates an entire bucket.
MAX_GLOBAL_DEPTH = 16


class Bucket:
    """A directory bucket (one mini-partition-group)."""

    __slots__ = ("local_depth", "pattern")

    def __init__(self, local_depth: int, pattern: int) -> None:
        self.local_depth = local_depth
        self.pattern = pattern

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Bucket depth={self.local_depth} "
            f"pattern={self.pattern:0{max(1, self.local_depth)}b}>"
        )


class ExtendibleDirectory:
    """LSB-indexed extendible-hash directory."""

    def __init__(
        self,
        max_global_depth: int = MAX_GLOBAL_DEPTH,
        on_double: t.Callable[[int], None] | None = None,
    ) -> None:
        self.global_depth = 0
        self.max_global_depth = max_global_depth
        #: Observability hook: called with the new global depth whenever
        #: the directory doubles (the expensive structural change).
        self.on_double = on_double
        self.slots: list[Bucket] = [Bucket(0, 0)]
        # Derived from ``slots``, rebuilt after a split or merge.
        self._pattern_table: npt.NDArray[np.int64] | None = None
        self._buckets: list[Bucket] | None = None

    def pattern_table(self) -> npt.NDArray[np.int64]:
        """``int64[2**global_depth]`` mapping slot -> bucket pattern.

        Cached between structural changes; used by the vectorized
        router on every batch.
        """
        if self._pattern_table is None:
            self._pattern_table = np.fromiter(
                (b.pattern for b in self.slots),
                dtype=np.int64,
                count=len(self.slots),
            )
        return self._pattern_table

    def _invalidate_cache(self) -> None:
        self._pattern_table = None
        self._buckets = None

    # -- lookup -----------------------------------------------------------
    def slot_of(self, g: int) -> int:
        return int(g) & ((1 << self.global_depth) - 1)

    def bucket_for(self, g: int) -> Bucket:
        return self.slots[self.slot_of(g)]

    def buckets(self) -> list[Bucket]:
        """Distinct buckets, ordered by their lowest directory slot —
        which is their pattern.  Cached between structural changes: do
        not mutate the list."""
        if self._buckets is None:
            seen: dict[int, Bucket] = {}
            for bucket in self.slots:
                seen.setdefault(id(bucket), bucket)
            self._buckets = list(seen.values())
        return self._buckets

    @property
    def n_buckets(self) -> int:
        return len(self.buckets())

    # -- splitting ------------------------------------------------------------
    def can_split(self, bucket: Bucket) -> bool:
        return (
            bucket.local_depth < self.max_global_depth
            and (
                bucket.local_depth < self.global_depth
                or self.global_depth < self.max_global_depth
            )
        )

    def split(self, bucket: Bucket) -> tuple[Bucket, Bucket]:
        """Split *bucket* by bit ``local_depth`` of the directory hash:
        ``(low, high)`` take the hashes with that bit clear / set."""
        if not self.can_split(bucket):
            raise SimulationError("directory depth limit reached; cannot split")
        if bucket.local_depth == self.global_depth:
            # Double the directory: every existing slot pattern is
            # replicated with the new MSB set.
            self.slots = self.slots + self.slots
            self.global_depth += 1
            if self.on_double is not None:
                self.on_double(self.global_depth)

        bit = bucket.local_depth
        low = Bucket(bit + 1, bucket.pattern)
        high = Bucket(bit + 1, bucket.pattern | (1 << bit))
        bit_mask = 1 << bit
        for i, slot in enumerate(self.slots):
            if slot is bucket:
                self.slots[i] = high if (i & bit_mask) else low
        self._invalidate_cache()
        return low, high

    # -- merging ---------------------------------------------------------------
    def buddy_of(self, bucket: Bucket) -> Bucket | None:
        """The bucket's buddy, or None if it is not currently mergeable.

        A buddy exists only when it is a distinct bucket with the same
        local depth (the merge precondition of the paper).
        """
        if bucket.local_depth == 0:
            return None
        buddy_pattern = bucket.pattern ^ (1 << (bucket.local_depth - 1))
        buddy = self.slots[buddy_pattern & ((1 << self.global_depth) - 1)]
        if buddy is bucket or buddy.local_depth != bucket.local_depth:
            return None
        return buddy

    def merge(self, bucket: Bucket) -> Bucket | None:
        """Merge *bucket* with its buddy; returns the merged bucket or
        None when no eligible buddy exists.  Size policy is the caller's
        responsibility."""
        buddy = self.buddy_of(bucket)
        if buddy is None:
            return None
        depth = bucket.local_depth - 1
        merged = Bucket(depth, bucket.pattern & ((1 << depth) - 1))
        for i, slot in enumerate(self.slots):
            if slot is bucket or slot is buddy:
                self.slots[i] = merged
        self._invalidate_cache()
        return merged

    # -- integrity (used by property tests) -------------------------------------
    def check_invariants(self) -> None:
        """Raise if the directory structure is inconsistent."""
        if len(self.slots) != 1 << self.global_depth:
            raise SimulationError("directory size != 2**global_depth")
        counts: dict[int, int] = {}
        for i, bucket in enumerate(self.slots):
            if bucket.local_depth > self.global_depth:
                raise SimulationError("bucket local depth exceeds global depth")
            mask = (1 << bucket.local_depth) - 1
            if (i & mask) != bucket.pattern:
                raise SimulationError(
                    f"slot {i} pattern mismatch: {i & mask} != {bucket.pattern}"
                )
            counts[id(bucket)] = counts.get(id(bucket), 0) + 1
        for bucket in self.buckets():
            expected = 1 << (self.global_depth - bucket.local_depth)
            if counts[id(bucket)] != expected:
                raise SimulationError(
                    f"bucket {bucket!r} referenced by {counts[id(bucket)]} "
                    f"slots, expected {expected}"
                )
