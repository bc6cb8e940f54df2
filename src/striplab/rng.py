"""Deterministic seed derivation for parallel ensembles.

Every ensemble member gets its own 64-bit seed, ``mix64(master_seed,
index)``, so results never depend on how samples are partitioned across
workers.  ``mix64`` is a splitmix64-style finalizer: the index is folded in
with the golden-ratio increment and the state is run through two avalanche
rounds.

Reference test vectors (frozen, also asserted in tests/test_rng.py)::

    mix64(0, 0)                  == 16294208416658607535
    mix64(0, 1)                  == 7960286522194355700
    mix64(1, 0)                  == 10451216379200822465
    mix64(42, 7)                 == 14769051326987775908
    mix64(2**64 - 1, 123456789)  == 14763516371262913487

``mix64(a, b)`` depends only on ``(a + (b + 1) * GOLDEN) mod 2**64``;
distinct streams for one sample are derived with well-separated role
offsets, far from any realistic sample-index range.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Role offsets for independent sub-streams of one sample.  Large odd
# constants keep (seed + index*GOLDEN + role) collisions out of reach for
# any realistic index range.
ROLE_SURFACE = 0x53B21F1A6E0D6F01
ROLE_BULK = 0x7C83F1A55D2E9B4D


def mix64(master_seed: int, index: int) -> int:
    """Derive a 64-bit stream seed from a master seed and a sample index."""
    z = (int(master_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream(seed: int, role: int) -> np.random.Generator:
    """NumPy generator for one role of one sample.

    Distinct roles of the same seed give statistically independent streams;
    the mapping is pure, so any worker reconstructs the same generator.
    """
    return np.random.Generator(np.random.PCG64(mix64(seed, role)))
