import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora import model as M
from fedlora.autodiff import Tensor
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
    assert v.lookup("a") == 3
    assert v.lookup("b") == 4


def test_build_vocab_tie_breaks_lexicographically():
    v = build_vocab(["x y", "y x"], max_size=4)
    assert v.id_to_token == ["x"]


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([], max_size=10)


def test_build_vocab_respects_max_size():
    v = build_vocab(["a b c d e f"], max_size=5)
    assert v.size == 5


def test_tokenize_empty_text():
    v = build_vocab(["a b"], max_size=5)
    ids, mask = tokenize("", v, max_len=4)
    assert ids == [M.CLS_ID, M.PAD_ID, M.PAD_ID, M.PAD_ID]
    assert mask == [1, 0, 0, 0]


def test_tokenize_known_tokens():
    v = build_vocab(["a b"], max_size=5)
    ids, mask = tokenize("a b", v, max_len=4)
    assert ids == [M.CLS_ID, v.lookup("a"), v.lookup("b"), M.PAD_ID]
    assert mask == [1, 1, 1, 0]


def test_tokenize_unknown_maps_to_unk():
    v = build_vocab(["a b"], max_size=5)
    ids, _ = tokenize("a zzz", v, max_len=4)
    assert ids[2] == M.UNK_ID


def test_tokenize_truncates_to_max_len():
    v = build_vocab(["a b c d e"], max_size=10)
    ids, mask = tokenize("a b c d e", v, max_len=3)
    assert len(ids) == 3 and len(mask) == 3
    assert mask == [1, 1, 1]
    assert ids[0] == M.CLS_ID


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
    mask = [1, 1, 1, 0, 0, 0, 0, 0]
    logits = forward(m, [ids, ids], [mask, mask])
    assert np.array_equal(logits.data[0], logits.data[1])


def test_forward_mask_invariance():
    m = init_model(small_cfg())
    mask = [1, 1, 1, 0, 0, 0, 0, 0]
    a = [2, 5, 9, 0, 0, 0, 0, 0]
    b = [2, 5, 9, 17, 3, 8, 1, 60]  # junk in every masked slot
    # a full-length row keeps the masked columns in the trimmed batch
    full = [2, 4, 6, 8, 10, 12, 14, 16]
    logits = forward(m, [a, b, full], [mask, mask, [1] * 8])
    assert np.array_equal(logits.data[0], logits.data[1])


def test_forward_rejects_overlong_sequence():
    m = init_model(small_cfg(max_seq_len=4))
    with pytest.raises(DataError):
        forward(m, [[2, 3, 4, 5, 6]], [[1, 1, 1, 1, 1]])


def test_forward_finite_on_random_inputs():
    m = init_model(small_cfg())
    gen = np.random.default_rng(0)
    for _ in range(100):
        length = int(gen.integers(1, 9))
        ids = [M.CLS_ID] + list(gen.integers(0, 64, size=length - 1))
        mask = [1] * length
        ids += [0] * (8 - length)
        mask += [0] * (8 - length)
        logits = forward(m, [ids], [mask])
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
    m = init_model(small_cfg(d_model=16))  # head width 8 fits the 8 keys attention_weights reads off
    # the full-length second row keeps the first row's masked keys in the trimmed batch
    ids = [[2, 5, 9, 13, 0, 0, 0, 0], [2, 4, 6, 8, 10, 12, 14, 16]]
    mask = [[1, 1, 1, 1, 0, 0, 0, 0], [1] * 8]
    calls = spy_on_attention(monkeypatch)
    forward(m, ids, mask)
    monkeypatch.undo()  # attention_weights calls the real op
    assert calls
    for q, k, _, key_mask, n_heads in calls:
        assert np.array_equal(key_mask, np.asarray(mask, dtype=bool))
        weights = attention_weights(q, k, key_mask, n_heads)
        unmasked = key_mask[:, None, None, :]
        assert np.abs(np.where(unmasked, weights, 0.0).sum(axis=-1) - 1.0).max() <= 1e-12
        assert np.all(weights[~np.broadcast_to(unmasked, weights.shape)] == 0.0)


def test_forward_is_pure():
    m = init_model(small_cfg())
    ids = [[2, 5, 9, 0, 0, 0, 0, 0]]
    mask = [[1, 1, 1, 0, 0, 0, 0, 0]]
    before = [p.data.copy() for p in m.parameters()]
    l1 = forward(m, ids, mask)
    l2 = forward(m, ids, mask)
    assert np.array_equal(l1.data, l2.data)
    for p, b in zip(m.parameters(), before):
        assert np.array_equal(p.data, b)


def test_forward_trims_columns_no_row_needs(monkeypatch):
    m = init_model(small_cfg())
    calls = spy_on_attention(monkeypatch)
    forward(m, [[2, 5, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0]],
            [[1, 1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]])
    assert calls
    for q, _, _, key_mask, _ in calls:
        assert key_mask.shape == (2, 2)
        assert q.shape == (4, m.cfg.d_model)


@pytest.mark.parametrize("adapted", [False, True])
def test_batched_rows_equal_examples_run_alone(adapted):
    m = init_model(small_cfg(n_layers=2))
    gen = np.random.default_rng(12)
    if adapted:
        m = attach_adapters(m, LoraConfig(rank=2, seed=3, targets=("q", "k", "v", "o", "ff1", "ff2")))
        for adapter in m.adapters.values():
            adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
    cfg = m.cfg
    ids, masks = [], []
    for length in (1, cfg.max_seq_len, 3, 5, 2, 7):
        row = [M.CLS_ID] + list(gen.integers(3, cfg.vocab_size, size=length - 1))
        pad = cfg.max_seq_len - length
        ids.append(row + list(gen.integers(0, cfg.vocab_size, size=pad)))  # junk padding
        masks.append([1] * length + [0] * pad)
    batched = forward(m, ids, masks).data
    for i in range(len(ids)):
        alone = forward(m, [ids[i]], [masks[i]]).data
        assert np.abs(batched[i] - alone[0]).max() <= 1e-12


def test_forward_rejects_ragged_and_tokenless_batches():
    m = init_model(small_cfg())
    with pytest.raises(DataError, match="ragged"):
        forward(m, [[2, 5, 0], [2, 5]], [[1, 1, 0], [1, 1]])
    with pytest.raises(DataError, match="ragged"):
        forward(m, [[2, 5, 0]], [[1, 1]])
    with pytest.raises(DataError, match="mask rows"):
        forward(m, [[2, 5, 0]], [[1, 1, 0], [1, 0, 0]])
    with pytest.raises(DataError, match="row 1 .*no real token"):
        forward(m, [[2, 5, 0], [0, 0, 0]], [[1, 1, 0], [0, 0, 0]])
    with pytest.raises(DataError, match="empty batch"):
        forward(m, [], [])
