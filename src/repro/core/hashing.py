"""Hash functions for partitioning and fine tuning.

Two independent hashes are derived from the join-attribute value:

* ``H(k) % npart`` — the partition hash that routes a tuple to one of
  the ``npart`` stream partitions (the master's level of indirection);
* ``g(k)`` — the directory hash whose least-significant bits index the
  extendible-hash directory inside a partition-group (Section IV-D).

Both are built from the splitmix64 finalizer (a well-mixed bijection on
64-bit words), vectorized over numpy int64 arrays.  Independence between
``H`` and ``g`` matters: fine tuning must be able to split the tuples of
a single partition, so ``g`` cannot be a function of ``H(k) % npart``
alone.

``g`` is a bijection, so :func:`key_of` recovers a key from its hash,
and :func:`run_key` — ``g`` with its bits reversed — orders a
partition-group's tuples so that every mini-group is one contiguous
range (:mod:`repro.core.partition_group`).
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

HashArray = npt.NDArray[np.uint64]

_U64 = np.uint64
_MASK64: t.Final = (1 << 64) - 1
_PARTITION_SALT = _U64(0x9E3779B97F4A7C15)
_DIRECTORY_SALT = _U64(0xD1B54A32D192ED03)
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
#: The multipliers' inverses modulo 2**64 (both are odd).
_INV1 = _U64(pow(_MUL1, -1, 1 << 64))
_INV2 = _U64(pow(_MUL2, -1, 1 << 64))

#: ``(shift, mask)``: swapping the masked fields with their neighbours
#: ``shift`` bits up, for shifts 1, 2 and 4, reverses the bits of every
#: byte.
_SWAPS: t.Final = tuple(
    (_U64(shift), _U64(mask))
    for shift, mask in (
        (1, 0x5555_5555_5555_5555),
        (2, 0x3333_3333_3333_3333),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
    )
)


def _splitmix64(x: HashArray) -> HashArray:
    """The splitmix64 finalizer, elementwise on uint64."""
    x = (x + _U64(_GOLDEN)).astype(_U64)
    x = (x ^ (x >> _U64(30))) * _U64(_MUL1)
    x = (x ^ (x >> _U64(27))) * _U64(_MUL2)
    return x ^ (x >> _U64(31))


def _unshift(x: HashArray, shift: int) -> HashArray:
    """Invert ``x ^= x >> shift`` (for ``shift >= 22`` three terms do)."""
    return x ^ (x >> _U64(shift)) ^ (x >> _U64(2 * shift)) ^ (x >> _U64(3 * shift))


def _splitmix64_inverse(x: HashArray) -> HashArray:
    x = _unshift(x, 31) * _INV2
    x = _unshift(x, 27) * _INV1
    x = _unshift(x, 30)
    return x - _U64(_GOLDEN)


def partition_of(keys: npt.NDArray[t.Any], npart: int) -> npt.NDArray[np.int64]:
    """Partition id in ``[0, npart)`` for each key (vectorized)."""
    with np.errstate(over="ignore"):
        h = _splitmix64(keys.astype(np.int64).view(_U64) ^ _PARTITION_SALT)
    return (h % _U64(npart)).astype(np.int64)


def directory_hash(keys: npt.NDArray[t.Any]) -> HashArray:
    """The extendible-hashing hash ``g(k)`` (uint64, full width)."""
    with np.errstate(over="ignore"):
        return _splitmix64(keys.astype(np.int64).view(_U64) ^ _DIRECTORY_SALT)


def key_of(gvals: HashArray) -> npt.NDArray[np.int64]:
    """The keys whose :func:`directory_hash` is *gvals*."""
    with np.errstate(over="ignore"):
        return (_splitmix64_inverse(gvals.astype(_U64)) ^ _DIRECTORY_SALT).view(
            np.int64
        )


def bit_reverse(x: npt.NDArray[t.Any]) -> HashArray:
    """Each uint64 with its 64 bits in reverse order (an involution):
    the bits of every byte reversed in place, then the bytes."""
    out: HashArray = np.array(x, dtype=_U64)
    for shift, mask in _SWAPS:
        low = out & mask
        low <<= shift
        out >>= shift
        out &= mask
        out |= low
    return out.byteswap(inplace=True)


def run_key(keys: npt.NDArray[t.Any]) -> HashArray:
    """``bit_reverse(directory_hash(keys))``: what a partition-group's
    runs are sorted by and searched with."""
    return bit_reverse(directory_hash(keys))


def small_int_order(
    labels: npt.NDArray[np.integer[t.Any]], bound: int
) -> npt.NDArray[np.intp]:
    """A stable argsort of *labels*, each in ``[0, bound)``: partition
    ids (``bound = npart``) or mini-group indexes (at most
    ``2**MAX_GLOBAL_DEPTH`` of them).  They are sorted as the narrowest
    unsigned type that holds them, because at 8 and 16 bits numpy's
    stable sort is a radix sort, several times faster than its merge
    sort of 64-bit integers."""
    for dtype in (np.uint8, np.uint16):
        if bound <= np.iinfo(dtype).max + 1:
            return np.argsort(labels.astype(dtype), kind="stable")
    return np.argsort(labels, kind="stable")


def run_key_order(rkey: HashArray) -> npt.NDArray[np.intp]:
    """A stable argsort of run keys without numpy's stable sort of
    64-bit integers (a timsort, three to five times slower than its
    default sort on a block of a few thousand): the default sort, then
    each run of equal keys put back in line order by a stable sort of
    the tied keys alone.  ``g`` is a bijection, so only keys that repeat
    in the block tie, and their subset is short."""
    order = np.argsort(rkey)
    ordered = rkey[order]
    tied = ordered[1:] == ordered[:-1]
    if tied.any():
        in_tie = np.zeros(len(order), dtype=np.bool_)
        in_tie[1:] = tied
        in_tie[:-1] |= tied
        at = np.flatnonzero(in_tie)
        rows = np.sort(order[at])
        order[at] = rows[np.argsort(rkey[rows], kind="stable")]
    return order


def split_by(
    labels: npt.NDArray[np.integer[t.Any]], bound: int
) -> t.Iterator[tuple[int, npt.NDArray[np.intp]]]:
    """Each label in *labels* (all in ``[0, bound)``), ascending, with
    the indexes of its rows in their order: one stable sort, not one
    scan per label."""
    if not len(labels):
        return
    order = small_int_order(labels, bound)
    ordered = labels[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(order)]):
        yield int(ordered[lo]), order[lo:hi]
