"""Deterministic random streams with stable named substreams.

Every source of randomness in the package flows through Rng. Substreams are
derived by hashing (seed, label), so the stream a component sees depends only
on its label and the root seed, never on how many draws other components made.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Rng:
    """Seeded PCG64 stream; identical seed and call sequence give identical output."""

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive_seed(self, label: str) -> int:
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def derive(self, label: str) -> "Rng":
        """Independent child stream keyed by (seed, label)."""
        return Rng(self.derive_seed(label))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high) like numpy's Generator.integers."""
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
