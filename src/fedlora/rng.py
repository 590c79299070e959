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
    """n doubles in [low, high) from the counter-based SplitMix64 stream:
    low + ((mix64(seed + i * GAMMA) >> 11) * 2**-53) * (high - low), i = 1..n.

    The mix runs in place in one full-size uint64 work array, with one
    shift buffer that is freed before the float conversion, so the peak is
    twice the output. The work array is kept whole on purpose: the sizes of
    the arrays freed here move glibc's dynamic mmap and trim thresholds
    (the mmap one starts at 128 KiB, and freeing a larger mmap-backed block
    raises it), and with them the page faults of every later training step.
    Mixed in blocks of 16384 values (128 KiB), which leave the threshold
    near its start, the init made the round loop of the benchmark's skew
    workload take 127K minor page faults instead of 1.5K (README, "Memory").
    """
    z = np.arange(1, n + 1, dtype=np.uint64)
    z *= GAMMA
    z += np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    shifted = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):  # _mix64, in place
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    del shifted
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    u *= high - low
    u += low
    return u


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
