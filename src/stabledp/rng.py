"""Seed-stream derivation helpers.

Every randomized routine in this package takes an explicit
``numpy.random.Generator`` or draws its own from a seed key. Streams are
derived from structured keys (master seed plus context integers), and every
key must be an integer: a float, bool or string key raises ValueError, not
a truncated stream. The tuples the package's commands use give one stream
each (``tests/test_rng.py``), so sweep cells, oracle trials and mechanism
noise share none.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import _INTEGER, _require

__all__ = ["derive_rng", "float_key"]


def float_key(x: float) -> int:
    """Stable 64-bit key for a float value (bit pattern, not repr)."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator seeded from a tuple of integer keys.

    Each key must be an integer, numpy's included; any other key, a bool,
    a float or a string, raises ValueError naming its position, key 0 as
    ``seed``: every call in the package passes its seed first.

    Identical tuples yield bit-identical streams, and distinct ones independent
    streams unless ``numpy.random.SeedSequence`` reads them as one word list:
    keys wrap modulo 2**64 (``(-1,)`` is ``(2**64 - 1,)``), a key of 2**32 or
    more splits into 32-bit words (``(5, 2**32 + 1)`` is ``(5, 1, 1)``), and
    the list is zero-padded to four words (``(5, 1)`` is ``(5, 1, 0, 0)``).
    """
    for i, k in enumerate(keys):
        _require(f"key {i}" if i else "seed", k, *_INTEGER)
    return np.random.default_rng([int(k) & 0xFFFFFFFFFFFFFFFF for k in keys])
