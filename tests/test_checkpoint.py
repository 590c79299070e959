import struct
import tracemalloc

import numpy as np
import pytest

from fedlora.checkpoint import (load_adapters, load_model, load_vocab,
                                save_adapters, save_model, save_vocab)
from fedlora.errors import SchemaError
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import build_vocab, init_model

from test_model import small_cfg


def test_model_round_trip_bit_identical(tmp_path):
    m = init_model(small_cfg(seed=13))
    path = tmp_path / "model.bin"
    save_model(path, m)
    loaded = load_model(path)
    assert loaded.cfg == m.cfg
    for p, q in zip(m.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)


def test_model_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SchemaError):
        load_model(path)


def test_model_load_rejects_truncation(tmp_path):
    m = init_model(small_cfg())
    path = tmp_path / "model.bin"
    save_model(path, m)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(SchemaError):
        load_model(path)


def test_adapter_round_trip_bit_identical(tmp_path):
    base = init_model(small_cfg(seed=7))
    am = attach_adapters(base, LoraConfig(rank=2, seed=3, targets=("q", "v")))
    gen = np.random.default_rng(0)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape)
    am.head_w.data = gen.normal(size=am.head_w.data.shape)
    path = tmp_path / "adapters.bin"
    save_adapters(path, am)
    loaded = load_adapters(path, base)
    assert np.array_equal(extract_trainable(loaded), extract_trainable(am))
    assert list(loaded.adapters) == list(am.adapters)


def test_adapter_load_rejects_model_magic(tmp_path):
    base = init_model(small_cfg())
    path = tmp_path / "model.bin"
    save_model(path, base)
    with pytest.raises(SchemaError):
        load_adapters(path, base)


def test_adapter_load_rejects_mismatched_base(tmp_path):
    base = init_model(small_cfg(d_model=8, n_layers=1))
    am = attach_adapters(base, LoraConfig(rank=2, seed=3))
    path = tmp_path / "adapters.bin"
    save_adapters(path, am)
    other = init_model(small_cfg(d_model=8, n_layers=2))
    with pytest.raises(SchemaError):
        load_adapters(path, other)


def test_vocab_round_trip(tmp_path):
    vocab = build_vocab(["stress deadline calm sunny stress"], max_size=10)
    path = tmp_path / "vocab.txt"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


# malformed files ------------------------------------------------------------

def write_tiny_checkpoints(tmp_path):
    """A model and an adapter file small enough to cut at every byte offset."""
    base = init_model(small_cfg(vocab_size=4, d_model=2, n_heads=1, ff_dim=2, max_seq_len=2))
    am = attach_adapters(base, LoraConfig(rank=1, seed=3, targets=("q", "v")))
    model_path, adapter_path = tmp_path / "model.bin", tmp_path / "adapters.bin"
    save_model(model_path, base)
    save_adapters(adapter_path, am)
    return base, model_path, adapter_path


def test_model_file_cut_at_every_offset_raises_schema_error(tmp_path):
    _, path, _ = write_tiny_checkpoints(tmp_path)
    good = path.read_bytes()
    for cut in range(len(good)):
        path.write_bytes(good[:cut])
        with pytest.raises(SchemaError):
            load_model(path)


def test_adapter_file_cut_at_every_offset_raises_schema_error(tmp_path):
    base, _, path = write_tiny_checkpoints(tmp_path)
    good = path.read_bytes()
    for cut in range(len(good)):
        path.write_bytes(good[:cut])
        with pytest.raises(SchemaError):
            load_adapters(path, base)


def _patch(data: bytes, offset: int, new: bytes) -> bytes:
    return data[:offset] + new + data[offset + len(new):]


# header layout: magic (4) + version (4), then the model's 8 x i64 config
# fields, or the adapter's rank, alpha, seed (24), name blob length (4), blob
MODEL_CORRUPTIONS = {
    "negative_vocab_size": lambda b: _patch(b, 8, struct.pack("<q", -5)),
    "zero_d_model": lambda b: _patch(b, 16, struct.pack("<q", 0)),
    "trailing_bytes": lambda b: b + bytes(8),
}
ADAPTER_CORRUPTIONS = {
    "rank_zero": lambda b: _patch(b, 8, struct.pack("<q", 0)),
    "names_not_utf8": lambda b: _patch(b, 36, b"\xff\xfe"),
    "name_without_colon": lambda b: b.replace(b"0:wq", b"0;wq", 1),
    "layer_not_an_int": lambda b: b.replace(b"0:wq", b"x:wq", 1),
    "unknown_target": lambda b: b.replace(b"0:wq", b"0:zz", 1),
    "empty_name_blob": lambda b: b[:32] + struct.pack("<I", 0) + b[36 + len(b"0:wq,0:wv"):],
    "trailing_bytes": lambda b: b + bytes(8),
}


@pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
def test_corrupt_model_file_raises_schema_error(tmp_path, corruption):
    _, path, _ = write_tiny_checkpoints(tmp_path)
    path.write_bytes(MODEL_CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(SchemaError):
        load_model(path)


@pytest.mark.parametrize("corruption", sorted(ADAPTER_CORRUPTIONS))
def test_corrupt_adapter_file_raises_schema_error(tmp_path, corruption):
    base, _, path = write_tiny_checkpoints(tmp_path)
    good = path.read_bytes()
    assert good[36:36 + 9] == b"0:wq,0:wv"
    path.write_bytes(ADAPTER_CORRUPTIONS[corruption](good))
    with pytest.raises(SchemaError):
        load_adapters(path, base)


# headers that ask for far more than the file holds: a 200000-word vocabulary
# in a header-only model file, a 50 MB name blob in a header-only adapter file
HUGE_HEADERS = {
    "model_vocab_size": lambda model, adapters: _patch(model[:72], 8, struct.pack("<q", 200_000)),
    "adapter_name_blob": lambda model, adapters: _patch(adapters[:36], 32, struct.pack("<I", 50_000_000)),
}


@pytest.mark.parametrize("header", sorted(HUGE_HEADERS))
def test_huge_header_raises_schema_error_before_allocating(tmp_path, header):
    base, model_path, adapter_path = write_tiny_checkpoints(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(HUGE_HEADERS[header](model_path.read_bytes(), adapter_path.read_bytes()))
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError):
            load_model(bad) if header.startswith("model") else load_adapters(bad, base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_vocab_file_not_utf8_raises_schema_error(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"stress\n\xff\xfecalm\n")
    with pytest.raises(SchemaError):
        load_vocab(path)
