import collections
import inspect
import sys

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
def test_pcg64_random_raw_is_numpys_bit_for_bit(seed, n):
    got = rng.PCG64(seed).random_raw(n)
    assert got.dtype == np.uint64 and got.shape == (n,)
    assert got.tobytes() == np.random.PCG64(seed).random_raw(n).tobytes()


def test_pcg64_stream_goes_on_where_its_last_draw_stopped():
    ours, numpys = rng.PCG64(7), np.random.PCG64(7)
    for n in (3, 0, 1, rng._BLOCK + 2, 1000):
        assert ours.random_raw(n).tobytes() == numpys.random_raw(n).tobytes()


def test_pcg64_random_raw_refuses_a_count_too_large_to_hold_before_drawing():
    with pytest.raises(MemoryError):
        rng.PCG64(0).random_raw(2 ** 50)  # 8 PiB


def test_pcg64_stream_read_in_pieces_computes_only_the_draws_it_returns(monkeypatch):
    pieces = [1, rng._BLOCK - 1, rng._BLOCK, rng._BLOCK + 1, 1000]
    whole = rng.PCG64(11).random_raw(sum(pieces))
    computed, draws = [], rng._pcg64_draws
    monkeypatch.setattr(rng, "_pcg64_draws", lambda state, inc, n: computed.append(n) or draws(state, inc, n))
    stream = rng.PCG64(11)
    got = np.concatenate([stream.random_raw(n) for n in pieces])
    assert computed == pieces
    assert got.tobytes() == whole.tobytes() == np.random.PCG64(11).random_raw(sum(pieces)).tobytes()


# Dirichlet --------------------------------------------------------------------

IN_HOUSE = [(alpha, k, rows) for alpha in (0.1, 0.3, 0.5, 0.9, 0.999)
            for k in (2, 3, 8) for rows in (1, 2, 3)]


def numpys_dirichlet(seed, alpha, k, rows):
    return np.random.Generator(np.random.PCG64(seed)).dirichlet(np.full(k, alpha), size=rows)


def no_np_generator(seed):
    raise AssertionError("drawn in-house at 0.1 <= alpha < 1")


def test_dirichlet_is_numpys_bit_for_bit(monkeypatch):
    monkeypatch.setattr(rng, "np_generator", no_np_generator)
    for i in range(5 * len(IN_HOUSE)):  # five derived seeds per (alpha, k, rows)
        seed, (alpha, k, rows) = rng.derive(i, "dirichlet"), IN_HOUSE[i % len(IN_HOUSE)]
        got = rng.dirichlet(seed, alpha, k, rows)
        assert got.shape == (rows, k)
        assert got.tobytes() == numpys_dirichlet(seed, alpha, k, rows).tobytes(), (i, alpha, k, rows)


# each branch of the exponential ziggurat and of the gamma rejection loop,
# named by the comment on its line
BRANCHES = {"fast accept": rng._exponential, "idx-0 tail": rng._exponential,
            "wedge accept": rng._exponential, "wedge reject": rng._exponential,
            "U <= 1 - shape": rng._gamma_below_one, "U > 1 - shape": rng._gamma_below_one}


def branch_counts(call):
    """How often each of BRANCHES' lines runs during call(), by a line tracer."""
    lines = {}
    for name, func in BRANCHES.items():
        source, first = inspect.getsourcelines(func)
        [offset] = [i for i, text in enumerate(source) if f"# {name}" in text]
        lines[func.__code__, first + offset] = name
    codes, counts = {code for code, _ in lines}, collections.Counter()

    def on_line(frame, event, arg):
        if event == "line" and (frame.f_code, frame.f_lineno) in lines:
            counts[lines[frame.f_code, frame.f_lineno]] += 1
        return on_line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code in codes else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return counts


PINNED = [(rng.derive(97, "branches"), 0.5, 8, 3),  # reaches every branch on its own
          (rng.derive(0, "branches"), 0.1, 3, 2), (rng.derive(1, "branches"), 0.999, 2, 1)]


def test_pinned_seeds_reach_every_branch_and_stay_numpys():
    counts = collections.Counter()
    for seed, alpha, k, rows in PINNED:
        counts += branch_counts(lambda: rng.dirichlet(seed, alpha, k, rows))
        assert rng.dirichlet(seed, alpha, k, rows).tobytes() == numpys_dirichlet(seed, alpha, k, rows).tobytes()
    assert {name: counts[name] > 0 for name in BRANCHES} == dict.fromkeys(BRANCHES, True), counts


def test_exponential_is_numpys_up_to_the_rounding_of_its_tables():
    # a Dirichlet below alpha 1 reads an exponential only in comparisons, so
    # its values are held here: equal to NumPy's to 1e-11 relative (we is off
    # by up to 7.4e-13), every branch reached, the stream left where NumPy's is
    def draws():
        for i in range(200):
            seed = rng.derive(i, "exponential")
            stream = rng.raw_draws(rng.PCG64(seed), 64)
            got = [rng._exponential(stream.__next__) for _ in range(50)]
            gen = np.random.Generator(np.random.PCG64(seed))
            np.testing.assert_allclose(got, gen.standard_exponential(50), rtol=1e-11, atol=0)
            assert next(stream) == gen.bit_generator.random_raw()

    counts = branch_counts(draws)
    assert all(counts[name] > 0 for name in BRANCHES if BRANCHES[name] is rng._exponential), counts


@pytest.mark.parametrize("alpha", [0.05, 0.0999, 1.0, 2.0])
@pytest.mark.parametrize("k, rows", [(1, 1), (3, 2), (8, 3)])
def test_dirichlet_outside_the_in_house_range_is_numpys(alpha, k, rows):
    seed = rng.derive(k, rows, "fallback")
    assert rng.dirichlet(seed, alpha, k, rows).tobytes() == numpys_dirichlet(seed, alpha, k, rows).tobytes()


@pytest.mark.parametrize("alpha", [0.5, 0.05, 2.0])
def test_numpys_rows_equal_one_draw_per_row_on_one_generator(alpha):
    # partition_clients draws all its labels' rows in one call
    seed = rng.derive(5, "rows")
    gen = np.random.Generator(np.random.PCG64(seed))
    one_by_one = np.stack([gen.dirichlet(np.full(4, alpha)) for _ in range(3)])
    assert numpys_dirichlet(seed, alpha, 4, 3).tobytes() == one_by_one.tobytes()


def test_a_row_whose_gammas_all_underflow_is_nan_as_numpys_is(monkeypatch):
    monkeypatch.setattr(rng, "_gamma_below_one", lambda draw, shape: 0.0)
    got = rng.dirichlet(3, 0.1, 3, 2)
    assert got.shape == (2, 3) and np.isnan(got).all()
