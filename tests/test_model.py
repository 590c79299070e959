import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora import model as M
from fedlora.autodiff import Graph, Tensor
from fedlora.errors import ConfigError, DataError
from fedlora.lora import LoraConfig, attach_adapters
from fedlora.model import ModelConfig, build_vocab, forward, init_model, tokenize

from test_autodiff import attention_weights


def small_cfg(**overrides):
    defaults = dict(vocab_size=64, d_model=8, n_heads=2, n_layers=1,
                    ff_dim=16, max_seq_len=8, n_classes=2, seed=5)
    defaults.update(overrides)
    return ModelConfig(**defaults)


# vocab ---------------------------------------------------------------------

def test_build_vocab_frequency_order():
    v = build_vocab(["a b", "a"], max_size=5)
    assert v.id_to_token == ["a", "b"]
    assert v.token_to_id["a"] == 3
    assert v.token_to_id["b"] == 4


def test_build_vocab_tie_breaks_lexicographically():
    v = build_vocab(["x y", "y x"], max_size=4)
    assert v.id_to_token == ["x"]


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([], max_size=10)


def test_build_vocab_max_size_below_the_reserved_ids():
    with pytest.raises(ConfigError, match="vocab max_size must be >= 3, got 2"):
        build_vocab(["a b"], 2)


def test_build_vocab_respects_max_size():
    v = build_vocab(["a b c d e f"], max_size=5)
    assert len(v.id_to_token) == 5 - M.N_RESERVED


def test_tokenize_empty_text():
    v = build_vocab(["a b"], max_size=5)
    assert tokenize("", v, max_len=4) == [M.CLS_ID, M.PAD_ID, M.PAD_ID, M.PAD_ID]


def test_tokenize_known_tokens():
    v = build_vocab(["a b"], max_size=5)
    assert tokenize("a b", v, max_len=4) == [M.CLS_ID, v.token_to_id["a"], v.token_to_id["b"], M.PAD_ID]


def test_tokenize_unknown_maps_to_unk():
    v = build_vocab(["a b"], max_size=5)
    ids = tokenize("a zzz", v, max_len=4)
    assert ids[2] == M.UNK_ID


def test_tokenize_truncates_to_max_len():
    v = build_vocab(["a b c d e"], max_size=10)
    ids = tokenize("a b c d e", v, max_len=3)
    assert ids == [M.CLS_ID, v.token_to_id["a"], v.token_to_id["b"]]


def _tokenize_oracle(text, vocab, max_len):
    """tokenize as first written: look up every word, then cut to max_len."""
    ids = ([M.CLS_ID] + [vocab.token_to_id.get(t, M.UNK_ID) for t in M.word_tokens(text)])[:max_len]
    return ids + [M.PAD_ID] * (max_len - len(ids))


@pytest.mark.parametrize("max_len", [1, 2, 3, 5, 8, 40])
@pytest.mark.parametrize("text", [
    "", "a", "a b c d e f g h i j",  # more words than most cuts keep
    "a b zzz qqq",  # unknown words before and past the cut
    "A b, c'd ... e 'f g zzz h! i", "zzz " * 30])
def test_tokenize_equals_looking_up_every_word_then_cutting(text, max_len):
    v = build_vocab(["a b c d e f", "a b c", "c'd"], max_size=7)
    ids = tokenize(text, v, max_len)
    assert ids == _tokenize_oracle(text, v, max_len)
    assert len(ids) == max_len and ids[0] == M.CLS_ID


def test_tokenize_looks_up_only_the_words_a_row_keeps():
    class Spy(dict):
        def get(self, key, default=None):
            seen.append(key)
            return super().get(key, default)

    seen = []
    v = build_vocab(["a b c"], max_size=10)
    v.token_to_id = Spy(v.token_to_id)
    ids = tokenize("a b c zzz a b", v, max_len=4)
    assert seen == ["a", "b", "c"]
    assert ids == _tokenize_oracle("a b c zzz a b", v, 4)
    seen.clear()
    assert tokenize("a b", v, max_len=1) == [M.CLS_ID] and seen == []


def test_real_width_is_one_past_the_last_real_column():
    ids = np.full((3, 8), M.PAD_ID, dtype=np.intp)
    ids[:, 0] = M.CLS_ID
    ids[1, 1:4] = 5  # PAD tail columns 4..7 in every row
    assert M.real_width(ids != M.PAD_ID) == 4
    assert M.real_width(ids[:1] != M.PAD_ID) == 1  # only CLS
    assert M.real_width(np.ones((2, 8), dtype=bool)) == 8  # the widest row fills max_len
    assert M.real_width(np.zeros((0, 8), dtype=bool)) == 1  # the empty set
    assert M.real_width(np.zeros((4, 8), dtype=bool)) == 1


def test_real_width_of_a_set_narrower_than_max_len():
    v = build_vocab(["a b c d"], max_size=10)
    ids = np.array([tokenize(t, v, max_len=12) for t in ("a b", "a b c d zzz", "c")])
    assert M.real_width(ids != M.PAD_ID) == 6
    ids_cut, mask = M._pack_batch(ids, max_seq_len=12)
    assert ids_cut.shape == mask.shape == (3, 6) and np.array_equal(ids_cut, ids[:, :6])


# init ----------------------------------------------------------------------

def test_init_model_is_bit_reproducible():
    m1, m2 = init_model(small_cfg()), init_model(small_cfg())
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1.data, p2.data)


def test_init_model_seed_sensitivity():
    m1, m2 = init_model(small_cfg(seed=1)), init_model(small_cfg(seed=2))
    assert any(not np.array_equal(p1.data, p2.data)
               for p1, p2 in zip(m1.parameters(), m2.parameters()))


def test_init_model_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        init_model(small_cfg(d_model=9, n_heads=2))


def test_param_count_closed_form():
    cfg = ModelConfig(vocab_size=256, d_model=32, n_heads=2, n_layers=2,
                      ff_dim=64, max_seq_len=32, n_classes=2, seed=0)
    m = init_model(cfg)
    d, ff, layers = 32, 64, 2
    expected = (
        256 * d          # token embedding
        + 32 * d         # positional embedding
        + layers * (4 * d * d + 2 * d * ff + 4 * d)  # attn, ff, two ln affines
        + d * 2 + 2      # classifier head
    )
    assert m.param_count() == expected


# forward -------------------------------------------------------------------

def test_forward_identical_rows_give_identical_logits():
    m = init_model(small_cfg())
    ids = [2, 5, 9, 0, 0, 0, 0, 0]
    logits = forward(m, [ids, ids])
    assert np.array_equal(logits.data[0], logits.data[1])


def test_forward_mask_invariance():
    m = init_model(small_cfg())
    padded = [2, 5, 9, 0, 0, 0, 0, 0]
    # a full-length row keeps the padded columns in the trimmed batch
    full = [2, 4, 6, 8, 10, 12, 14, 16]
    before = forward(m, [padded, full]).data
    m.tok_emb.data[M.PAD_ID] = np.random.default_rng(3).normal(size=m.cfg.d_model) * 50
    after = forward(m, [padded, full]).data
    assert np.array_equal(before, after)


def test_forward_rejects_overlong_sequence():
    m = init_model(small_cfg(max_seq_len=4))
    with pytest.raises(DataError):
        forward(m, [[2, 3, 4, 5, 6]])


def test_forward_finite_on_random_inputs():
    m = init_model(small_cfg())
    gen = np.random.default_rng(0)
    for _ in range(100):
        length = int(gen.integers(1, 9))
        ids = [M.CLS_ID] + list(gen.integers(0, 64, size=length - 1))
        ids += [0] * (8 - length)
        logits = forward(m, [ids])
        assert np.all(np.isfinite(logits.data))


def spy_on_attention(monkeypatch):
    """Record the arguments of every `autodiff.attention` call `forward` makes."""
    calls = []

    def spy(q, k, v, key_mask, n_heads):
        calls.append((q, k, v, np.asarray(key_mask), n_heads))
        return real_attention(q, k, v, key_mask, n_heads)

    real_attention = ad.attention
    monkeypatch.setattr(ad, "attention", spy)
    return calls


def test_attention_rows_sum_to_one_over_unmasked_keys(monkeypatch):
    # head width 8 fits the 8 keys attention_weights reads off; the second
    # layer is the last, which runs one query per sequence
    m = init_model(small_cfg(d_model=16, n_layers=2))
    # the full-length second row keeps the first row's masked keys in the trimmed batch
    ids = [[2, 5, 9, 13, 0, 0, 0, 0], [2, 4, 6, 8, 10, 12, 14, 16]]
    calls = spy_on_attention(monkeypatch)
    forward(m, ids)
    monkeypatch.undo()  # attention_weights calls the real op
    assert len(calls) == 2
    for q, k, _, key_mask, n_heads in calls:
        assert np.array_equal(key_mask, np.asarray(ids) != M.PAD_ID)
        weights = attention_weights(q, k, key_mask, n_heads)
        unmasked = key_mask[:, None, None, :]
        assert np.abs(np.where(unmasked, weights, 0.0).sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.all(weights[~np.broadcast_to(unmasked, weights.shape)] == 0.0)


def test_forward_is_pure():
    m = init_model(small_cfg())
    ids = [[2, 5, 9, 0, 0, 0, 0, 0]]
    before = [p.data.copy() for p in m.parameters()]
    l1 = forward(m, ids)
    l2 = forward(m, ids)
    assert np.array_equal(l1.data, l2.data)
    for p, b in zip(m.parameters(), before):
        assert np.array_equal(p.data, b)


def test_forward_trims_columns_no_row_needs(monkeypatch):
    m = init_model(small_cfg(n_layers=3))
    calls = spy_on_attention(monkeypatch)
    forward(m, [[2, 5, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0]])
    assert len(calls) == 3
    for q, _, _, key_mask, _ in calls:
        assert key_mask.shape == (2, 2)
    # every layer but the last queries all B*T rows; the last, only the CLS rows
    assert all(q.shape == (4, m.cfg.d_model) for q, *_ in calls[:-1])
    assert calls[-1][0].shape == (2, m.cfg.d_model)


@pytest.mark.parametrize("adapted", [False, True])
def test_batched_rows_equal_examples_run_alone(adapted):
    m = init_model(small_cfg(n_layers=2))
    gen = np.random.default_rng(12)
    if adapted:
        m = attach_adapters(m, LoraConfig(rank=2, seed=3, targets=("q", "k", "v", "o", "ff1", "ff2")))
        for adapter in m.adapters.values():
            adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
    cfg = m.cfg
    ids = []
    for length in (1, cfg.max_seq_len, 3, 5, 2, 7):
        row = [M.CLS_ID] + list(gen.integers(3, cfg.vocab_size, size=length - 1))
        ids.append(row + [M.PAD_ID] * (cfg.max_seq_len - length))
    batched = forward(m, ids).data
    for i in range(len(ids)):
        alone = forward(m, [ids[i]]).data
        assert np.abs(batched[i] - alone[0]).max() <= 1e-12


def _forward_all_rows(model, ids_batch):
    """Every layer on all B*T rows, then the CLS gather: the path the CLS-only last layer replaced."""
    ids, mask = M._pack_batch(ids_batch, model.cfg.max_seq_len)
    n_seq, seq_len = ids.shape
    x = ad.add(ad.gather_rows(model.tok_emb, ids.ravel()),
               ad.gather_rows(model.pos_emb, np.tile(np.arange(seq_len), n_seq)))
    for li, layer in enumerate(model.layers):
        q, k, v = (model.linear(x, li, name) for name in ("wq", "wk", "wv"))
        attn_out = model.linear(ad.attention(q, k, v, mask, model.cfg.n_heads), li, "wo")
        x = ad.layer_norm(ad.add(x, attn_out), layer["ln1_gamma"], layer["ln1_beta"], M.LN_EPS)
        ff = model.linear(ad.relu(model.linear(x, li, "ff1")), li, "ff2")
        x = ad.layer_norm(ad.add(x, ff), layer["ln2_gamma"], layer["ln2_beta"], M.LN_EPS)
    cls = ad.gather_rows(x, np.arange(n_seq) * seq_len)
    return ad.add(ad.matmul(cls, model.head_w), model.head_b)


@pytest.mark.parametrize("adapted", [False, True])
def test_cls_only_last_layer_matches_full_layer_then_gather(adapted):
    m = init_model(small_cfg(n_layers=2))
    gen = np.random.default_rng(21)
    if adapted:
        m = attach_adapters(m, LoraConfig(rank=2, seed=3, targets=("q", "k", "v", "o", "ff1", "ff2")))
        for adapter in m.adapters.values():
            adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
        params = m.trainable_parameters()
    else:
        params = m.parameters()
        for p in params:
            p.requires_grad = True
    cfg = m.cfg
    ids = []
    for length in (cfg.max_seq_len, 1, 4, 6, 2):
        row = [M.CLS_ID] + list(gen.integers(3, cfg.vocab_size, size=length - 1))
        ids.append(row + [M.PAD_ID] * (cfg.max_seq_len - length))
    labels = [0, 1, 1, 0, 1]
    results = []
    for fwd in (forward, _forward_all_rows):
        ad.zero_grads(params)
        with Graph() as g:
            logits = fwd(m, ids)
            loss = ad.cross_entropy(logits, labels)
        g.backward(loss)
        assert all(p.grad is not None for p in params)
        results.append([logits.data] + [p.grad for p in params])
    for cls_only, full in zip(*results):
        assert np.abs(cls_only - full).max() <= 1e-12


def test_forward_rejects_ragged_and_tokenless_batches():
    m = init_model(small_cfg())
    with pytest.raises(DataError, match="ragged"):
        forward(m, [[2, 5, 0], [2, 5]])
    with pytest.raises(DataError, match="non-integer"):
        forward(m, [[2, 5, None]])
    with pytest.raises(DataError, match="row 1 .*starts with id 0, not CLS_ID 2"):
        forward(m, [[2, 5, 0], [0, 0, 0]])
    # column 0 is the pooled CLS row: PAD or a word there is refused too
    with pytest.raises(DataError, match="row 0 .*starts with id 0, not CLS_ID"):
        forward(m, [[0, 5, 9, 0]])
    with pytest.raises(DataError, match="row 0 .*starts with id 5, not CLS_ID"):
        forward(m, [[5, 2, 9, 0]])
    with pytest.raises(DataError, match="empty batch"):
        forward(m, [])
    with pytest.raises(DataError, match="empty batch"):
        forward(m, np.zeros((0, m.cfg.max_seq_len), dtype=np.intp))
    with pytest.raises(DataError, match="matrix of id rows"):
        forward(m, [2, 5, 0])
