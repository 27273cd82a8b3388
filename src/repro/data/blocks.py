"""Block arithmetic.

The paper stores window partitions as chains of fixed-size blocks
(4 KB blocks of 64-byte tuples, i.e. 64 tuples per block) and processes
the join at block granularity.  These helpers convert tuple counts to
occupied-block counts and sizes.
"""

from __future__ import annotations

import typing as t

import numpy as np
import numpy.typing as npt

__all__ = ["n_blocks", "block_bytes_used"]

#: Tuple counts, elementwise.
Counts = npt.NDArray[np.integer[t.Any]]


@t.overload
def n_blocks(n_tuples: int, tuples_per_block: int) -> int: ...


@t.overload
def n_blocks(n_tuples: Counts, tuples_per_block: int) -> Counts: ...


def n_blocks(n_tuples: t.Any, tuples_per_block: int) -> t.Any:
    """Blocks occupied by ``n_tuples`` (a partial head block counts),
    elementwise on an array."""
    if np.min(n_tuples, initial=0) < 0:
        raise ValueError(f"negative tuple count: {n_tuples}")
    return -(-n_tuples // tuples_per_block)


def block_bytes_used(n_tuples: int, tuples_per_block: int, block_bytes: int) -> int:
    """Block-granular storage footprint of ``n_tuples``."""
    return n_blocks(n_tuples, tuples_per_block) * block_bytes
