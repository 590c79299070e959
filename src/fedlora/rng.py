"""Deterministic seeding utilities.

Parameter initialization uses SplitMix64 (Steele et al. 2014) as a
counter-based generator: output i is mix64(seed + (i+1) * GAMMA), so whole
arrays are generated vectorized and bit-reproducibly, independent of call
order or platform.

Every shuffle, split and partition order is `permutation`, an argsort of
that SplitMix64 stream. NumPy's PCG64 (`np_generator`), seeded from a derived
sub-seed, serves only the label-skew Dirichlet proportions and the synthetic
corpus's words, which need only be a pure function of the seed.
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniform_array(seed: int, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """n doubles in [low, high) from the counter-based SplitMix64 stream."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * GAMMA)
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return low + u * (high - low)


def derive(seed: int, *tags) -> int:
    """Stable sub-seed from a base seed and a tag path (ints or strings)."""
    state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for tag in tags:
            if isinstance(tag, str):
                # FNV-1a over the utf-8 bytes
                h = np.uint64(0xCBF29CE484222325)
                for b in tag.encode("utf-8"):
                    h = (h ^ np.uint64(b)) * np.uint64(0x100000001B3)
                tag_u = h
            else:
                tag_u = np.uint64(int(tag) & 0xFFFFFFFFFFFFFFFF)
            state = _mix64((state + GAMMA) ^ tag_u)
    return int(state)


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n) via argsort of a uniform draw."""
    keys = uniform_array(seed, n)
    return np.argsort(keys, kind="stable")


def np_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
