import numpy as np
import pytest

from fedlora import rng

# the first five outputs of SplitMix64 seeded with 1234567, as printed by the
# reference implementation (Vigna, splitmix64.c)
SPLITMIX64_1234567 = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                      4593380528125082431, 16408922859458223821]


def _uniform_array_oracle(seed, n, low=0.0, high=1.0):
    """uniform_array as first written: whole-array temporaries, no in-place steps."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = rng._mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * rng.GAMMA)
    u = (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    return low + u * (high - low)


def test_uniform_array_is_splitmix64():
    expected = np.array([(x >> 11) * 2.0 ** -53 for x in SPLITMIX64_1234567])
    assert np.array_equal(rng.uniform_array(1234567, 5), expected)


@pytest.mark.parametrize("n", [0, 1, 2, 16385, 256000])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
@pytest.mark.parametrize("low, high", [(0.0, 1.0), (-0.03, 0.03), (-2.5, 3.1)])
def test_uniform_array_matches_its_whole_array_form_bit_for_bit(n, seed, low, high):
    got = rng.uniform_array(seed, n, low, high)
    want = _uniform_array_oracle(seed, n, low, high)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()


# PCG64 ----------------------------------------------------------------------

PCG64_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, rng.derive(3, "synth")]


@pytest.mark.parametrize("seed", PCG64_SEEDS)
def test_seed_sequence_state_is_numpys(seed):
    want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert rng._seed_sequence_state(seed) == want.tolist()


@pytest.mark.parametrize("n", [0, 1, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 30000])
@pytest.mark.parametrize("seed", PCG64_SEEDS)
def test_pcg64_raw_is_numpys_pcg64_bit_for_bit(seed, n):
    got = rng.pcg64_raw(seed, n)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tobytes() == np.random.PCG64(seed).random_raw(n).tobytes()


def test_pcg64_stream_goes_on_where_its_last_draw_stopped():
    ours, numpys = rng.PCG64(7), np.random.PCG64(7)
    for n in (3, 0, 1, rng._BLOCK + 2, 1000):
        assert ours.random_raw(n).tobytes() == numpys.random_raw(n).tobytes()


def test_pcg64_raw_refuses_a_count_too_large_to_hold_before_drawing():
    with pytest.raises(MemoryError):
        rng.pcg64_raw(0, 2 ** 50)  # 8 PiB
