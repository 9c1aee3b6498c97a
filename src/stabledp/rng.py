"""Seed-stream derivation helpers.

Every randomized routine in this package takes an explicit
``numpy.random.Generator`` or draws its own from a seed key. Independent
streams are derived from structured keys (master seed plus context
integers) so that parallel sweep cells, oracle trials, and mechanism noise
never share a stream.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["derive_rng", "float_key"]


def float_key(x: float) -> int:
    """Stable 64-bit key for a float value (bit pattern, not repr)."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator seeded from a tuple of integer keys.

    Distinct key tuples yield statistically independent streams; identical
    tuples yield bit-identical streams.
    """
    return np.random.default_rng([int(k) & 0xFFFFFFFFFFFFFFFF for k in keys])
