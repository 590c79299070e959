import collections
import csv

import numpy as np
import pytest

from fedlora import rng
from fedlora.data import (_CALM_WORDS, _FILLER_WORDS, _STRESS_WORDS, PartitionSpec, Record,
                          _largest_remainder, load_corpus, make_shards,
                          partition_clients, save_corpus, split_train_eval, synth_corpus)
from fedlora.errors import ConfigError, DataError, SchemaError
from fedlora.model import build_vocab, word_tokens


def write_csv(tmp_path, rows, header="id,text,label"):
    path = tmp_path / "corpus.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_corpus_preserves_order(tmp_path):
    path = write_csv(tmp_path, ['0,"hello there",0', '1,"big deadline",1'])
    records = load_corpus(path)
    assert [r.text for r in records] == ["hello there", "big deadline"]
    assert [r.label for r in records] == [0, 1]


def test_load_corpus_quoted_commas_and_newlines(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text('text,label\n"one, two\nthree",1\n', encoding="utf-8")
    (rec,) = load_corpus(path)
    assert rec.text == "one, two\nthree"


def test_load_corpus_missing_column(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("text,score\nhi,1\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="label"):
        load_corpus(path)


def test_load_corpus_bad_label_reports_row(tmp_path):
    path = write_csv(tmp_path, ["0,fine,0", "1,bad,2"])
    with pytest.raises(SchemaError, match="unparsable label '2' at row 3"):
        load_corpus(path)


def test_load_corpus_empty_text_reports_row(tmp_path):
    path = write_csv(tmp_path, ["0,fine,0", '1," ",1'])
    with pytest.raises(SchemaError, match="empty text at row 3"):
        load_corpus(path)


def test_corpus_round_trips_through_csv(tmp_path):
    records = synth_corpus(20, seed=3)
    path = tmp_path / "out.csv"
    save_corpus(records, path)
    loaded = load_corpus(path)
    assert [r.text for r in loaded] == [r.text for r in records]
    assert [r.label for r in loaded] == [r.label for r in records]


def test_save_corpus_that_fails_midway_leaves_no_target_or_temp_file(tmp_path, monkeypatch):
    real_writer = csv.writer

    class FailsAfterFirstRow:
        def __init__(self, fh):
            self.fh, self.rows = fh, 0

        def write(self, text):
            self.rows += 1
            if self.rows > 1:
                raise OSError("disk full")
            return self.fh.write(text)

    monkeypatch.setattr(csv, "writer", lambda fh: real_writer(FailsAfterFirstRow(fh)))
    path = tmp_path / "out.csv"
    with pytest.raises(OSError, match="disk full"):
        save_corpus(synth_corpus(20, seed=3), path)
    assert list(tmp_path.iterdir()) == []

    path.write_text("an earlier corpus\n", encoding="utf-8")
    with pytest.raises(OSError, match="disk full"):
        save_corpus(synth_corpus(20, seed=3), path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "an earlier corpus\n"


# splitting -----------------------------------------------------------------

def records_n(n):
    return [Record(id=i, text=f"t{i}", label=i % 2) for i in range(n)]


def test_split_sizes():
    train, eval_set = split_train_eval(records_n(10), 0.2, seed=0)
    assert (len(train), len(eval_set)) == (8, 2)


def test_split_deterministic():
    a = split_train_eval(records_n(10), 0.3, seed=5)
    b = split_train_eval(records_n(10), 0.3, seed=5)
    assert [r.id for r in a[0]] == [r.id for r in b[0]]
    assert [r.id for r in a[1]] == [r.id for r in b[1]]


def test_split_is_a_partition():
    recs = records_n(11)
    train, eval_set = split_train_eval(recs, 0.25, seed=1)
    ids = sorted(r.id for r in train) + sorted(r.id for r in eval_set)
    assert sorted(ids) == [r.id for r in recs]


def test_split_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        split_train_eval(records_n(10), 1.5, seed=0)
    with pytest.raises(DataError):
        split_train_eval(records_n(1), 0.5, seed=0)


# partitioning --------------------------------------------------------------

def assert_partition_sound(groups, recs):
    seen = [r.id for g in groups for r in g]
    assert sorted(seen) == sorted(r.id for r in recs)
    assert len(seen) == len(set(seen))


def test_partition_single_client_identity():
    recs = records_n(7)
    groups = partition_clients(recs, PartitionSpec(n_clients=1, strategy="iid", seed=0))
    assert len(groups) == 1
    assert sorted(r.id for r in groups[0]) == [r.id for r in recs]


def test_partition_iid_balanced_sizes():
    groups = partition_clients(records_n(9), PartitionSpec(n_clients=3, strategy="iid", seed=2))
    assert [len(g) for g in groups] == [3, 3, 3]
    assert_partition_sound(groups, records_n(9))


def test_partition_rejects_too_many_clients():
    with pytest.raises(DataError):
        partition_clients(records_n(2), PartitionSpec(n_clients=3, strategy="iid", seed=0))


def test_label_skew_high_alpha_approaches_iid():
    recs = records_n(400)  # balanced labels
    for seed in range(20):
        spec = PartitionSpec(n_clients=4, strategy="label_skew", alpha=1000.0, seed=seed)
        groups = partition_clients(recs, spec)
        assert_partition_sound(groups, recs)
        for g in groups:
            ratio = sum(r.label for r in g) / len(g)
            assert abs(ratio - 0.5) < 0.1


def test_label_skew_low_alpha_skews():
    recs = records_n(400)
    ratios = []
    for seed in range(10):
        spec = PartitionSpec(n_clients=4, strategy="label_skew", alpha=0.1, seed=seed)
        for g in partition_clients(recs, spec):
            if g:
                ratios.append(sum(r.label for r in g) / len(g))
    assert max(ratios) > 0.9 and min(ratios) < 0.1


def test_quantity_skew_largest_remainder():
    recs = records_n(10)
    spec = PartitionSpec(n_clients=3, strategy="quantity_skew",
                         ratios=[0.5, 0.3, 0.2], seed=1)
    groups = partition_clients(recs, spec)
    assert_partition_sound(groups, recs)
    for g, ratio in zip(groups, spec.ratios):
        assert abs(len(g) - 10 * ratio) < 1.0


def partition_by_loops(records, spec):
    """The label_skew and quantity_skew partitions with the cut written as a
    start/size loop over each permutation: the oracle for partition_clients."""
    if spec.strategy == "quantity_skew":
        perm = rng.permutation(rng.derive(spec.seed, "quantity"), len(records))
        sizes = _largest_remainder(len(records), np.asarray(spec.ratios, dtype=float))
        groups, start = [], 0
        for size in sizes:
            groups.append([records[perm[i]] for i in range(start, start + size)])
            start += size
        return groups
    gen = rng.np_generator(rng.derive(spec.seed, "label_skew"))
    groups = [[] for _ in range(spec.n_clients)]
    for label in sorted({r.label for r in records}):
        members = [r for r in records if r.label == label]
        perm = rng.permutation(rng.derive(spec.seed, "label_skew", label), len(members))
        sizes = _largest_remainder(len(members), gen.dirichlet(np.full(spec.n_clients, spec.alpha)))
        start = 0
        for cid, size in enumerate(sizes):
            groups[cid].extend(members[perm[i]] for i in range(start, start + size))
            start += size
    return groups


def test_partition_soundness_randomized():
    gen = np.random.default_rng(0)
    for trial in range(100):
        n = int(gen.integers(5, 120))
        k = int(gen.integers(1, min(n, 8) + 1))
        strategy = ["iid", "label_skew", "quantity_skew"][trial % 3]
        kwargs = {}
        if strategy == "label_skew":
            kwargs["alpha"] = float(gen.uniform(0.05, 10.0))
        if strategy == "quantity_skew":
            raw = gen.uniform(0.5, 2.0, size=k)
            ratios = (raw / raw.sum()).tolist()
            ratios[-1] = 1.0 - sum(ratios[:-1])
            kwargs["ratios"] = ratios
        spec = PartitionSpec(n_clients=k, strategy=strategy, seed=trial, **kwargs)
        recs = records_n(n)
        groups = partition_clients(recs, spec)
        assert_partition_sound(groups, recs)
        again = partition_clients(recs, spec)
        assert [[r.id for r in g] for g in groups] == [[r.id for r in g] for g in again]
        if strategy != "iid":
            oracle = partition_by_loops(recs, spec)
            assert [[r.id for r in g] for g in groups] == [[r.id for r in g] for g in oracle]


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.99, 1.0, 2.0])  # in-house from 0.1 to below 1
def test_label_skew_equals_its_per_label_numpy_draws(alpha):
    recs = [Record(id=i, text=f"t{i}", label=i % 3) for i in range(90)]
    for seed in range(5):
        spec = PartitionSpec(n_clients=4, strategy="label_skew", alpha=alpha, seed=seed)
        groups, oracle = partition_clients(recs, spec), partition_by_loops(recs, spec)
        assert [[r.id for r in g] for g in groups] == [[r.id for r in g] for g in oracle]


def test_make_shards_splits_each_client():
    shards = make_shards(records_n(30), PartitionSpec(n_clients=3, strategy="iid", seed=0), 0.2)
    for s in shards:
        assert s.train and s.eval
        assert not {r.id for r in s.train} & {r.id for r in s.eval}


def test_make_shards_hold_out_never_takes_a_shards_last_record():
    # ceil(2 * 0.6) = 2 would hold out both records of each 2-record shard
    spec = PartitionSpec(n_clients=2, strategy="iid", seed=0)
    for n, sizes in ((4, [2, 2]), (5, [1, 2])):
        recs = records_n(n)
        shards = make_shards(recs, spec, 0.6)
        assert [len(s.train) for s in shards] == sizes
        assert_partition_sound([s.train + s.eval for s in shards], recs)


# synthesis -----------------------------------------------------------------

def test_synth_corpus_balanced():
    records = synth_corpus(100, seed=1)
    counts = collections.Counter(r.label for r in records)
    assert counts[0] == counts[1] == 50


def test_synth_corpus_deterministic():
    a, b = synth_corpus(50, seed=9), synth_corpus(50, seed=9)
    assert [(r.text, r.label) for r in a] == [(r.text, r.label) for r in b]


def test_synth_corpus_rejects_tiny_n():
    with pytest.raises(DataError):
        synth_corpus(1, seed=0)


def scalar_synth_corpus(n, seed):
    """The word-by-word loop that synth_corpus replaces: the oracle it must equal."""
    gen = rng.np_generator(rng.derive(seed, "synth"))
    pools = (_CALM_WORDS, _STRESS_WORDS)
    records = []
    for i in range(n):
        label = i % 2
        pool = pools[label]
        words = []
        for _ in range(10):
            if gen.random() < 0.6:
                words.append(pool[gen.integers(len(pool))])
            else:
                words.append(_FILLER_WORDS[gen.integers(len(_FILLER_WORDS))])
        records.append(Record(id=i, text=" ".join(words), label=label))
    perm = rng.permutation(rng.derive(seed, "synth_order"), n)
    return [records[i] for i in perm]


# every size against several seeds, and the configs' (2000, 3) and (400, 3)
@pytest.mark.parametrize("n, seed", [(n, seed) for n in (2, 3, 10, 401, 2000, 5000)
                                     for seed in (0, 3, 11)] + [(400, 3), (1000, 7), (2, 1)])
def test_synth_corpus_equals_the_word_by_word_loop(n, seed):
    assert synth_corpus(n, seed) == scalar_synth_corpus(n, seed)


def no_np_generator(seed):
    raise AssertionError("the synthetic corpus draws from rng.PCG64 only")


@pytest.mark.parametrize("seed", [54719, 89361, 92993])
def test_synth_corpus_equals_the_loop_past_a_rejected_half(seed, monkeypatch):
    # Lemire's method rejects one 32-bit half in each of these corpora, which
    # shifts every later draw by a half
    expected = scalar_synth_corpus(2000, seed)
    made, PCG64 = [], rng.PCG64
    monkeypatch.setattr(rng, "PCG64", lambda s: made.append(s) or PCG64(s))
    monkeypatch.setattr(rng, "np_generator", no_np_generator)
    records = synth_corpus(2000, seed)
    assert made == [rng.derive(seed, "synth")] * 2  # the block, then the fresh stream it replays on
    assert records == expected


def test_unigram_count_classifier_oracle():
    # an independent naive classifier must score >= 0.9 held out
    records = synth_corpus(400, seed=2)
    train, held_out = records[:300], records[300:]
    counts = {0: collections.Counter(), 1: collections.Counter()}
    for r in train:
        counts[r.label].update(word_tokens(r.text))
    correct = 0
    for r in held_out:
        score = sum(counts[1][t] - counts[0][t] for t in word_tokens(r.text))
        pred = int(score > 0)
        correct += pred == r.label
    assert correct / len(held_out) >= 0.9
