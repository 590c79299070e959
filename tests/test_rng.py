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


# coin_then_pick ---------------------------------------------------------------

def numpys_coin_then_pick(seed, count, p, k_heads, k_tails):
    """The loop coin_then_pick computes, on NumPy's own Generator."""
    gen = np.random.Generator(np.random.PCG64(seed))
    coins, picks = [], []
    for _ in range(count):
        coins.append(gen.random() < p)
        picks.append(int(gen.integers(k_heads if coins[-1] else k_tails)))
    return coins, picks


# the corpus's draws; a k that rejects about half its halves, so the rounds
# are replayed; and the smallest and largest k
@pytest.mark.parametrize("p, k_heads, k_tails", [(0.6, 12, 16), (0.3, 3, 2 ** 31 + 1),
                                                 (0.5, 2, 2 ** 32)])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 100])
def test_coin_then_pick_is_numpys_generator(count, p, k_heads, k_tails):
    seed = rng.derive(count, k_tails, "coin_then_pick")
    coin, pick = rng.coin_then_pick(seed, count, p, k_heads, k_tails)
    assert coin.shape == pick.shape == (count,)
    assert (coin.tolist(), pick.tolist()) == numpys_coin_then_pick(seed, count, p, k_heads, k_tails)


class CountingBitGen:
    """Hands out a bit generator's raw draws and records each call's size."""

    def __init__(self, bitgen):
        self.bitgen, self.sizes = bitgen, []

    def random_raw(self, size):
        self.sizes.append(size)
        return self.bitgen.random_raw(size)


@pytest.mark.parametrize("n", [2000, 400])
def test_coin_then_pick_takes_one_block_of_three_draws_per_two_rounds(n, monkeypatch):
    made = []
    monkeypatch.setattr(rng, "PCG64", lambda seed: made.append(CountingBitGen(np.random.PCG64(seed)))
                        or made[-1])
    rng.coin_then_pick(rng.derive(3, "synth"), 10 * n, 0.6, 12, 16)
    assert [bitgen.sizes for bitgen in made] == [[15 * n]]


class ScriptedBitGen:
    """A bit generator whose raw draws are given."""

    def __init__(self, raws):
        self.raws, self.pos = raws, 0

    def random_raw(self, size):
        out = np.array(self.raws[self.pos:self.pos + size], dtype=np.uint64)
        assert out.size == size, "drew past the script"
        self.pos += size
        return out


def scripted(monkeypatch, raws):
    """Make every rng.PCG64 a new ScriptedBitGen of `raws`; the list of those made."""
    made = []
    monkeypatch.setattr(rng, "PCG64", lambda seed: made.append(ScriptedBitGen(raws)) or made[-1])
    return made


def loop_draws(raws, count):
    """What Generator.random() and Generator.integers(k) take, word by word."""
    draws, high_half_left = iter(raws), None
    coins, picks = [], []
    for _ in range(count):
        coin = (next(draws) >> 11) * 2.0 ** -53 < 0.6
        k = 12 if coin else 16
        while True:
            if high_half_left is None:
                r = next(draws)
                half, high_half_left = r & 0xFFFFFFFF, r >> 32
            else:
                half, high_half_left = high_half_left, None
            m = half * k
            if m & 0xFFFFFFFF >= (2 ** 32 - k) % k:
                break
        coins.append(coin)
        picks.append(m >> 32)
    return coins, picks


K12_COIN, K16_COIN = 0, 2 ** 64 - 1  # random() reads 0.0 (< 0.6) and 1 - 2**-53


def scripted_raws(word, coin, half):
    """400 raws for 200 words (one block of 300, or the replay's first 400),
    with `word`'s coin draw and its 32-bit half set."""
    gen = np.random.default_rng(0)
    raws = [int(r) for r in gen.integers(0, 2 ** 64, size=400, dtype=np.uint64)]
    pair, high = divmod(word, 2)
    raws[3 * pair + 2 * high] = coin
    shift = 32 * high
    raws[3 * pair + 1] = raws[3 * pair + 1] & ~(0xFFFFFFFF << shift) | half << shift
    return raws


HALVES_12_REJECTS = [0, 2 ** 30, 2 ** 31, 3 * 2 ** 30]


@pytest.mark.parametrize("word", [0, 1, 98, 199])
@pytest.mark.parametrize("half", HALVES_12_REJECTS)
def test_a_half_that_integers_12_rejects_replays_the_rounds_one_by_one(word, half, monkeypatch):
    raws = scripted_raws(word, K12_COIN, half)
    made = scripted(monkeypatch, raws)
    coin, pick = rng.coin_then_pick(0, 200, 0.6, 12, 16)
    assert [bitgen.pos for bitgen in made] == [300, 400]  # the block, then the replay
    assert (coin.tolist(), pick.tolist()) == loop_draws(raws, 200)


@pytest.mark.parametrize("word", [0, 1, 98, 199])
@pytest.mark.parametrize("coin, half", [(K16_COIN, h) for h in HALVES_12_REJECTS]
                         + [(K12_COIN, 2 ** 30 - 1), (K12_COIN, 2 ** 30 + 1)])
def test_one_block_equals_the_loop_next_to_the_rejected_halves(word, coin, half, monkeypatch):
    raws = scripted_raws(word, coin, half)
    made = scripted(monkeypatch, raws)
    coins, picks = loop_draws(raws, 200)
    got = rng.coin_then_pick(0, 200, 0.6, 12, 16)
    assert [bitgen.pos for bitgen in made] == [300]
    assert got[0].tolist() == coins and got[1].tolist() == picks
    assert coins[word] == (coin == K12_COIN)


def test_the_replay_reads_past_its_first_block_of_raws(monkeypatch):
    # word 0's k=12 draw rejects the six halves of raws 1-3 and takes raw 4's
    # low half; word 1's integers(16) takes raw 4's high half
    raws = [K12_COIN, 0, 0, 0, 2 ** 31 + 1 | 7 << 32, K16_COIN, 11, 12]
    made = scripted(monkeypatch, raws)
    coin, pick = rng.coin_then_pick(0, 2, 0.6, 12, 16)
    assert [bitgen.pos for bitgen in made] == [3, 8]  # the replay reads two blocks of 2 * count
    assert (coin.tolist(), pick.tolist()) == loop_draws(raws, 2) == ([True, False], [6, 0])


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
            stream = rng._raw_draws(rng.PCG64(seed), 64)
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
