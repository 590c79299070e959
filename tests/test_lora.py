import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora.autodiff import Graph, Tensor
from fedlora.checkpoint import load_adapters, save_adapters
from fedlora.errors import ConfigError, ProtocolError
from fedlora.federation import FedConfig, client_update, encode_records
from fedlora.lora import (Adapter, LoraConfig, attach_adapters, extract_trainable,
                          load_trainable, merge_adapters, trainable_param_count)
from fedlora.model import ModelConfig, build_vocab, forward, init_model

from test_model import small_cfg


def make_adapted(lora_seed=9, **model_overrides):
    base = init_model(small_cfg(**model_overrides))
    return base, attach_adapters(base, LoraConfig(rank=2, seed=lora_seed, targets=("q", "v")))


def random_batch(cfg, gen, batch=4):
    ids = []
    for _ in range(batch):
        length = int(gen.integers(2, cfg.max_seq_len + 1))
        row = [2] + list(gen.integers(3, cfg.vocab_size, size=length - 1))
        ids.append(row + [0] * (cfg.max_seq_len - length))
    return ids


def test_zero_init_is_exact_noop():
    base, am = make_adapted()
    gen = np.random.default_rng(1)
    ids = random_batch(base.cfg, gen)
    assert np.array_equal(forward(base, ids).data, forward(am, ids).data)


def test_adapter_count_targets_times_layers():
    base = init_model(small_cfg(n_layers=2))
    am = attach_adapters(base, LoraConfig(rank=2, seed=0, targets=("q", "v")))
    assert len(am.adapters) == 4


def test_same_seed_same_a_matrices():
    _, am1 = make_adapted(lora_seed=4)
    _, am2 = make_adapted(lora_seed=4)
    for k in am1.adapters:
        assert np.array_equal(am1.adapters[k].a.data, am2.adapters[k].a.data)


def test_rank_too_large_rejected():
    base = init_model(small_cfg(d_model=8, n_heads=2))
    with pytest.raises(ConfigError):
        attach_adapters(base, LoraConfig(rank=8, seed=0, targets=("q",)))


def test_adapter_delta_zero_when_b_zero():
    _, am = make_adapted()
    for a, b in am.adapters.values():
        assert np.all(am.lora_cfg.scale * (b.data @ a.data) == 0.0)


def test_adapter_delta_hand_outer_product():
    base = init_model(small_cfg(d_model=2, n_heads=1))
    base.layers[0]["wq"].data[...] = 0.0
    am = attach_adapters(base, LoraConfig(rank=1, seed=0, targets=("q",)))
    am.adapters[(0, "wq")] = Adapter(a=Tensor([[3.0, 4.0]]), b=Tensor([[1.0], [2.0]]))
    assert np.array_equal(merge_adapters(am).layers[0]["wq"].data, [[3.0, 4.0], [6.0, 8.0]])


def test_merged_delta_round_trips():
    base, am = make_adapted()
    frozen_before = [p.data.copy() for p in base.parameters()]
    gen = np.random.default_rng(2)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape)
    merged = merge_adapters(am)
    for (li, name), adapter in am.adapters.items():
        extracted = merged.layers[li][name].data - base.layers[li][name].data
        assert np.allclose(extracted, am.lora_cfg.scale * (adapter.b.data @ adapter.a.data), atol=1e-12)
    # merging leaves the frozen base untouched
    for p, b in zip(base.parameters(), frozen_before):
        assert np.array_equal(p.data, b)


def test_merge_equivalence_on_random_batches():
    base, am = make_adapted()
    gen = np.random.default_rng(3)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
    merged = merge_adapters(am)
    for _ in range(20):
        ids = random_batch(base.cfg, gen)
        diff = np.abs(forward(am, ids).data - forward(merged, ids).data)
        assert diff.max() < 1e-6


def test_non_unit_scale_merges_clones_and_round_trips(tmp_path):
    base = init_model(small_cfg())
    am = attach_adapters(base, LoraConfig(rank=2, alpha=5.0, seed=9, targets=("q", "v")))
    assert am.lora_cfg.scale == 2.5
    gen = np.random.default_rng(7)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
    ids = random_batch(base.cfg, gen)
    logits = forward(am, ids).data
    assert np.abs(logits - forward(merge_adapters(am), ids).data).max() < 1e-12
    save_adapters(tmp_path / "adapters.bin", am)
    for copy in (am.clone(), load_adapters(tmp_path / "adapters.bin", base)):
        assert extract_trainable(copy).tobytes() == extract_trainable(am).tobytes()
        assert forward(copy, ids).data.tobytes() == logits.tobytes()


def test_merge_zero_adapters_equals_base():
    base, am = make_adapted()
    merged = merge_adapters(am)
    for p, q in zip(base.parameters(), merged.parameters()):
        assert np.array_equal(p.data, q.data)


def test_double_merge_rejected():
    _, am = make_adapted()
    merged = merge_adapters(am)
    with pytest.raises(TypeError):
        merge_adapters(merged)


def test_trainable_count_formula_paper_scale():
    # one 768x768 matrix at rank 8: r(d+k) = 12,288 versus dk = 589,824
    cfg = ModelConfig(vocab_size=8, d_model=768, n_heads=1, n_layers=1,
                      ff_dim=8, max_seq_len=4, n_classes=2, seed=0)
    am = attach_adapters(init_model(cfg), LoraConfig(rank=8, seed=0, targets=("q",)))
    _, breakdown = trainable_param_count(am)
    assert breakdown["layer0.wq"] == 12_288
    assert am.base.layers[0]["wq"].data.size == 589_824


def test_trainable_count_desk_config():
    cfg = ModelConfig(vocab_size=256, d_model=32, n_heads=2, n_layers=2,
                      ff_dim=64, max_seq_len=16, n_classes=2, seed=0)
    am = attach_adapters(init_model(cfg), LoraConfig(rank=4, seed=0, targets=("q", "v")))
    total, breakdown = trainable_param_count(am)
    adapter_total = sum(v for k, v in breakdown.items() if k != "head")
    assert adapter_total == 4 * 4 * (32 + 32) == 1024
    assert breakdown["head"] == 32 * 2 + 2
    assert total == adapter_total + breakdown["head"]


def test_trainable_ratio_below_5_percent():
    cfg = ModelConfig()  # shipped desk defaults
    am = attach_adapters(init_model(cfg), LoraConfig(rank=4, seed=0, targets=("q", "v")))
    total, _ = trainable_param_count(am)
    assert total / am.base.param_count() < 0.05


def test_extract_load_round_trip_bit_identical():
    _, am = make_adapted()
    gen = np.random.default_rng(4)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape)
    before = [p.data.copy() for p in am.trainable_parameters()]
    arrays = [p.data for p in am.trainable_parameters()]
    vec = extract_trainable(am)
    assert vec.size == trainable_param_count(am)[0]
    load_trainable(am, vec)
    vec[:] = 0.0  # the load copied the values, not the vector
    for p, a, b in zip(am.trainable_parameters(), arrays, before):
        assert p.data is a  # written in place: a load allocates no arrays
        assert np.array_equal(p.data, b)


def test_load_rejects_wrong_length():
    _, am = make_adapted()
    with pytest.raises(ProtocolError):
        load_trainable(am, np.zeros(3))


def test_zero_vector_zeroes_adapters_and_head():
    base, am = make_adapted()
    load_trainable(am, np.zeros(trainable_param_count(am)[0]))
    gen = np.random.default_rng(5)
    ids = random_batch(base.cfg, gen)
    # zero head on top of the frozen base means all-zero logits
    assert np.all(forward(am, ids).data == 0.0)


def test_gradient_flows_to_adapters_not_base():
    base, am = make_adapted()
    gen = np.random.default_rng(6)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.3
    ids = random_batch(base.cfg, gen)
    with Graph() as g:
        loss = ad.cross_entropy(forward(am, ids), [0, 1, 0, 1])
    g.backward(loss)
    for (li, name), adapter in am.adapters.items():
        assert adapter.a.grad is not None and np.any(adapter.a.grad != 0.0)
        assert adapter.b.grad is not None and np.any(adapter.b.grad != 0.0)
        assert base.layers[li][name].grad is None
    assert am.head_w.grad is not None
    assert base.tok_emb.grad is None


def test_frozen_base_bit_identical_after_training():
    import fedlora.data as D
    base, am = make_adapted()
    frozen_before = [p.data.copy() for p in base.parameters()]
    records = D.synth_corpus(40, seed=8)
    vocab = build_vocab([r.text for r in records], base.cfg.vocab_size)
    train = encode_records(records, vocab, base.cfg.max_seq_len)
    cfg = FedConfig(n_clients=1, rounds=1, local_epochs=2, eta=0.3, batch_size=8, seed=1)
    theta, _ = client_update(am, extract_trainable(am), train, cfg, round_idx=0, client_id=0)
    load_trainable(am, theta)
    for p, b in zip(base.parameters(), frozen_before):
        if p is base.head_w or p is base.head_b:
            continue  # the adapted model trains its own head copy
        assert np.array_equal(p.data, b)
