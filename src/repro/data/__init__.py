"""Data plane: tuple batches and block math.

Stream tuples are 64 logical bytes on the wire and in windows (the
paper's Section VI-A); in memory we keep only the columns the join
needs — timestamp, join key, sequence number, stream id — as numpy
arrays (structure-of-arrays), and account for the logical payload size
separately.
"""

from repro.data.blocks import BlockView, iter_blocks, n_blocks
from repro.data.tuples import TupleBatch

__all__ = ["TupleBatch", "BlockView", "iter_blocks", "n_blocks"]
