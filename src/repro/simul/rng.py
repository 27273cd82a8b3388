"""Named, reproducible random substreams.

Every stochastic component of the system (arrival processes, key
generators, the master's random partition-group choice, ...) draws from
its own named substream derived from a single root seed, so adding a new
consumer never perturbs the randomness seen by existing ones.
"""

from __future__ import annotations

import zlib

import numpy as np

# Imported by name, not reached as ``np.random``: numpy 2.x loads the
# subpackage on first attribute access, inside a run's first draw.
from numpy.random import SeedSequence, default_rng


class RngRegistry:
    """Hands out independent :class:`numpy.random.Generator` substreams.

    Substreams are keyed by string; the same ``(root_seed, key)`` pair
    always yields an identically-seeded generator.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, key: str) -> np.random.Generator:
        """Return the substream for *key*, creating it on first use."""
        gen = self._cache.get(key)
        if gen is None:
            # crc32 is stable across processes/runs (unlike hash()).
            child = zlib.crc32(key.encode("utf-8"))
            seq = SeedSequence(entropy=self.root_seed, spawn_key=(child,))
            gen = default_rng(seq)
            self._cache[key] = gen
        return gen

    def fork(self, sub_root: str) -> "RngRegistry":
        """A registry whose streams are all independent of this one."""
        child = zlib.crc32(sub_root.encode("utf-8"))
        return RngRegistry(root_seed=(self.root_seed * 0x9E3779B1 + child) % 2**63)
