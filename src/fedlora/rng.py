"""Deterministic seeding utilities.

Parameter initialization uses SplitMix64 (Steele et al. 2014) as a
counter-based generator: output i is mix64(seed + (i+1) * GAMMA), so whole
arrays are generated vectorized and bit-reproducibly, independent of call
order or platform.

Every shuffle, split and partition order is `permutation`, an argsort of
that SplitMix64 stream. The synthetic corpus's words and the label-skew
Dirichlet proportions come from `PCG64`: NumPy's PCG64 stream (SeedSequence
seeding, a 128-bit LCG, XSL-RR output) computed in-house, bit-equal to
NumPy's own. `dirichlet` draws NumPy's Dirichlet from it at
0.1 <= alpha < 1 (the exponential ziggurat feeding NumPy's gamma rejection
loop), equal to NumPy's on every seed tested. So a run imports NumPy's
random module only for a label skew with alpha outside that range, which a
NumPy `Generator` (`np_generator`) draws; the import adds about 6 MB to the
run process's peak RSS (README, "Memory").
"""

from __future__ import annotations

import functools
import math

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


# PCG64 (O'Neill, HMC-CS-2014-0905) as NumPy seeds and runs it
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_BLOCK = 256  # jump-ahead offsets per block


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash: each call folds in and steps one hash constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _seed_sequence_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64), 0 <= seed < 2**64: the
    seed's 32-bit words (least significant first, zero-padded: NumPy pads a
    shorter seed with zero words too) hashed into a 4-word pool, every pool
    word mixed into every other, then 8 hashed pool words, paired
    little-endian into 4 64-bit words."""
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (seed & _M32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _M32
                pool[dst] = mixed ^ mixed >> 16
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    words = [hashmix(pool[i % 4]) for i in range(8)]
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mulhi64(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of x * y, over 32-bit limbs held in uint64."""
    x0, x1, y0, y1 = x & _M32, x >> 32, y & _M32, y >> 32
    cross0, cross1 = x0 * y1, x1 * y0
    carry = (x0 * y0 >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32)


def _pcg64_draws(state: int, inc: int, n: int) -> tuple[np.ndarray, int]:
    """The next n draws of the PCG64 LCG s -> s * MULT + inc from `state`, and
    its state after the last of them; draw j is the XSL-RR output of s_(j+1).

    The LCG runs by jump-ahead (Brown, "Random Number Generation with
    Arbitrary Strides", 1994): with A_j = MULT**j and C_j the matching sum of
    increments, s_(bL+j) = A_j * s_(bL) + C_j. A_j and C_j for one block of
    L offsets, and each block's first state, are Python ints; every state is
    then one vectorized 128-bit multiply-add, so no draw makes a Python
    object.
    """
    raws = np.empty(n, dtype=np.uint64)  # first, so that an n too large to hold fails at once
    if n == 0:
        return raws, state
    starts = [state]
    mults, adds, a, c = [], [], 1, 0
    for _ in range(min(n, _BLOCK)):
        a, c = a * _PCG_MULT & _M128, (c * _PCG_MULT + inc) & _M128
        mults.append(a)
        adds.append(c)
    for _ in range(-(-n // _BLOCK) - 1):
        starts.append((a * starts[-1] + c) & _M128)
    a_high, a_low = _halves(mults)
    c_high, c_low = _halves(adds)
    s_high, s_low = (half[:, None] for half in _halves(starts))
    low = a_low * s_low  # uint64 products wrap, mod 2**64
    high = _mulhi64(a_low, s_low) + a_low * s_high + a_high * s_low
    low += c_low
    high += c_high + (low < c_low)
    high, low = high.ravel()[:n], low.ravel()[:n]
    state = int(high[-1]) << 64 | int(low[-1])
    low ^= high  # XSL: high ^ low, rotated right by the state's top 6 bits
    rot = high >> 58
    np.right_shift(low, rot, out=raws)
    raws |= low << (64 - rot & 63)
    return raws, state


class PCG64:
    """NumPy's `PCG64(seed)` bit generator, 0 <= seed < 2**64: SeedSequence(seed)
    gives (state, increment) words, PCG64 seeds its 128-bit LCG with them,
    and `random_raw(n)` returns the stream's next n draws bit for bit, as that
    bit generator's method does. Each call goes on from the LCG state after
    the last draw, so a stream read in pieces costs what one read of it does."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_sequence_state(seed & _M64)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128

    def random_raw(self, n: int) -> np.ndarray:
        raws, self.state = _pcg64_draws(self.state, self.inc, n)
        return raws


# NumPy's Dirichlet at 0.1 <= alpha < 1, from the exponential ziggurat
_ZIGGURAT_R, _ZIGGURAT_V = 7.69711747013104972, 3.949659822581572e-3


@functools.cache
def _ziggurat() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    """The (ke, we, fe) tables of NumPy's 256-layer exponential ziggurat on
    53-bit integers, built in double as Marsaglia and Tsang's zigset builds
    them (J. Stat. Softw. 5(8), 2000) from the base layer's right edge r and
    area v. They are not NumPy's compiled tables bit for bit: ke is off by up
    to 2221 units, we by up to 7.4e-13 relative. Below shape 1, where
    `dirichlet` uses them, an exponential enters only comparisons."""
    r, v, scale = _ZIGGURAT_R, _ZIGGURAT_V, 2.0 ** 53
    q = v / math.exp(-r)
    ke, we, fe = [0] * 256, [0.0] * 256, [0.0] * 256
    ke[0], we[0], fe[0] = int(r / q * scale), q / scale, 1.0
    we[255], fe[255] = r / scale, math.exp(-r)
    x = r
    for i in range(254, 0, -1):
        inner = -math.log(v / x + math.exp(-x))
        ke[i + 1] = int(inner / x * scale)
        x = inner
        fe[i], we[i] = math.exp(-x), x / scale
    return tuple(ke), tuple(we), tuple(fe)


def next_double(raw: int) -> float:
    """NumPy's `next_double`: the top 53 bits of a raw draw, in [0, 1)."""
    return (raw >> 11) * 2.0 ** -53


def _exponential(draw) -> float:
    """NumPy's `random_standard_exponential`, from `draw()`'s raw draws."""
    ke, we, fe = _ziggurat()
    ri = draw() >> 3
    idx, ri = ri & 0xFF, ri >> 8
    x = ri * we[idx]
    if ri < ke[idx]:
        return x  # fast accept, 97.8% of draws (the mean of ke / 2**53)
    if idx == 0:
        return _ZIGGURAT_R - math.log1p(-next_double(draw()))  # idx-0 tail
    if (fe[idx - 1] - fe[idx]) * next_double(draw()) + fe[idx] < math.exp(-x):
        return x  # wedge accept
    return _exponential(draw)  # wedge reject: start again


def _gamma_below_one(draw, shape: float) -> float:
    """NumPy's `random_standard_gamma` at 0 < shape < 1: draw U, then an
    exponential V, until a proposal X from U passes its test against V."""
    while True:
        u, v = next_double(draw()), _exponential(draw)
        if u <= 1.0 - shape:
            x = u ** (1.0 / shape)  # U <= 1 - shape
            if x <= v:
                return x
        else:
            y = -math.log((1.0 - u) / shape)  # U > 1 - shape
            x = (1.0 - shape + shape * y) ** (1.0 / shape)
            if x <= v + y:
                return x


def raw_draws(stream, n: int):
    """The draws of `stream` (a `random_raw(n)` bit generator) one by one as
    Python ints, read from it n at a time."""
    while True:
        yield from stream.random_raw(n).tolist()


def dirichlet(seed: int, alpha: float, k: int, rows: int) -> np.ndarray:
    """`np_generator(seed).dirichlet(np.full(k, alpha), size=rows)`: rows of k
    symmetric Dirichlet(alpha) proportions.

    At 0.1 <= alpha < 1 they are computed from `PCG64(seed)` as NumPy
    computes them, every raw draw taken in NumPy's order: a row is k
    gamma(alpha) variates, each multiplied by 1 / their sum. Equal to NumPy's
    on every seed tested (README, "Determinism"). Outside that range NumPy
    draws them: below 0.1 it breaks a stick with beta variates instead, and
    from 1 on a gamma's value is built from the exponential's own, whose last
    bits would need NumPy's compiled ziggurat tables.
    """
    if not 0.1 <= alpha < 1:
        return np_generator(seed).dirichlet(np.full(k, alpha), size=rows)
    draw = raw_draws(PCG64(seed), 4 * k * rows).__next__
    out = np.empty((rows, k))
    for row in out:
        gammas = [_gamma_below_one(draw, alpha) for _ in range(k)]
        total = 0.0
        for g in gammas:  # in order, as NumPy sums them
            total += g
        inverse = 1.0 / total if total else math.inf  # NumPy's 1/0: a row of nan
        row[:] = [g * inverse for g in gammas]
    return out


def np_generator(seed: int) -> np.random.Generator:
    """NumPy's `Generator(PCG64(seed))`: the Dirichlet outside `dirichlet`'s
    in-house range, and the one use of numpy.random."""
    return np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
