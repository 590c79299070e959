import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from fedlora import checkpoint, rng
from fedlora.checkpoint import (load_adapters, load_model, load_vocab,
                                save_adapters, save_model, save_vocab)
from fedlora.errors import SchemaError
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import build_model, build_vocab, init_model

from test_model import small_cfg


def test_model_round_trip_bit_identical(tmp_path):
    m = init_model(small_cfg(seed=13))
    path = tmp_path / "model.bin"
    save_model(path, m)
    loaded = load_model(path)
    assert loaded.cfg == m.cfg
    for p, q in zip(m.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)


def test_model_load_reads_the_file_without_seeded_init(tmp_path, monkeypatch):
    m = init_model(small_cfg(seed=13, n_layers=2))
    path = tmp_path / "model.bin"
    save_model(path, m)

    def no_init(*args, **kwargs):
        raise AssertionError("load_model ran the seeded init")

    monkeypatch.setattr(rng, "uniform_array", no_init)
    loaded = load_model(path)
    assert [list(layer) for layer in loaded.layers] == [list(layer) for layer in m.layers]
    for p, q in zip(m.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)


def test_model_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(SchemaError):
        load_model(path)


def test_model_load_rejects_a_vocab_without_the_reserved_ids(tmp_path):
    # self-consistent file, but CLS_ID 2 is no row of a 2-row embedding table
    cfg = small_cfg(vocab_size=2)
    path = tmp_path / "model.bin"
    save_model(path, build_model(cfg, lambda _tag, rows, cols: np.zeros((rows, cols))))
    with pytest.raises(SchemaError, match="model.vocab_size must be >= 3"):
        load_model(path)


def test_model_load_rejects_truncation(tmp_path):
    m = init_model(small_cfg())
    path = tmp_path / "model.bin"
    save_model(path, m)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(SchemaError, match="model.bin is too short for the model its header describes"):
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


def test_derived_seeds_of_2_pow_63_or_more_save_and_load(tmp_path):
    seed = rng.derive(1, "model")  # as criterion 6 builds its configs
    assert seed >= 2 ** 63
    base = init_model(small_cfg(seed=seed))
    am = attach_adapters(base, LoraConfig(rank=2, seed=seed, targets=("q", "v")))
    save_model(tmp_path / "model.bin", base)
    save_adapters(tmp_path / "adapters.bin", am)
    loaded = load_model(tmp_path / "model.bin")
    loaded_am = load_adapters(tmp_path / "adapters.bin", loaded)
    assert loaded.cfg.seed == seed - 2 ** 64 and loaded_am.lora_cfg.seed == seed - 2 ** 64
    for p, q in zip(base.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)
    assert np.array_equal(extract_trainable(loaded_am), extract_trainable(am))
    # the seed read back gives the same streams
    again = init_model(small_cfg(seed=loaded.cfg.seed))
    for p, q in zip(base.parameters(), again.parameters()):
        assert np.array_equal(p.data, q.data)
    again_am = attach_adapters(again, loaded_am.lora_cfg)
    assert np.array_equal(extract_trainable(again_am), extract_trainable(am))


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
    with pytest.raises(SchemaError, match="adapters.bin has an adapter layout that does not match the base"):
        load_adapters(path, other)


def test_vocab_round_trip(tmp_path):
    vocab = build_vocab(["stress deadline calm sunny stress"], max_size=10)
    path = tmp_path / "vocab.txt"
    save_vocab(path, vocab)
    loaded = load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.token_to_id == vocab.token_to_id


def half_then_fail(fh, arr):
    fh.write(arr.astype("<f8").tobytes()[: arr.size * 4])
    raise OSError("disk full")


@pytest.mark.parametrize("kind", ["model", "adapters", "vocab"])
def test_failed_save_leaves_no_partial_target_or_temp_file(tmp_path, monkeypatch, kind):
    base = init_model(small_cfg())
    am = attach_adapters(base, LoraConfig(rank=2, seed=3, targets=("q", "v")))
    vocab = build_vocab(["stress deadline calm sunny"], max_size=10)
    vocab.id_to_token.insert(1, None)  # save_vocab fails after the first line
    monkeypatch.setattr(checkpoint, "_write_array", half_then_fail)
    save = {"model": lambda p: save_model(p, base),
            "adapters": lambda p: save_adapters(p, am),
            "vocab": lambda p: save_vocab(p, vocab)}[kind]
    path = tmp_path / kind

    with pytest.raises((OSError, TypeError)):
        save(path)
    assert list(tmp_path.iterdir()) == []

    path.write_bytes(b"an earlier run")
    with pytest.raises((OSError, TypeError)):
        save(path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"an earlier run"


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
        with pytest.raises(SchemaError, match=re.escape(str(path))):  # every message names the file
            load_model(path)


def test_adapter_file_cut_at_every_offset_raises_schema_error(tmp_path):
    base, _, path = write_tiny_checkpoints(tmp_path)
    good = path.read_bytes()
    for cut in range(len(good)):
        path.write_bytes(good[:cut])
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            load_adapters(path, base)


def _patch(data: bytes, offset: int, new: bytes) -> bytes:
    return data[:offset] + new + data[offset + len(new):]


# header layout: magic (4) + version (4), then the model's 8 x i64 config
# fields, or the adapter's rank, alpha, seed (24), name blob length (4), blob
MODEL_CORRUPTIONS = {  # id: (corruption, expected message)
    "negative_vocab_size": (lambda b: _patch(b, 8, struct.pack("<q", -5)),
                            "model.bin has an invalid model header: model.vocab_size must be >= 3"),
    "zero_d_model": (lambda b: _patch(b, 16, struct.pack("<q", 0)),
                     "model.bin has an invalid model header: model.d_model must be >= 1"),
    "trailing_bytes": (lambda b: b + bytes(8), "model.bin has trailing bytes after the last array"),
    "version_2": (lambda b: _patch(b, 4, struct.pack("<I", 2)),
                  "model.bin has unsupported model checkpoint version 2"),
}
MALFORMED_NAMES = "adapters.bin has a malformed adapter name list"
ADAPTER_CORRUPTIONS = {  # id: (corruption, expected message)
    "rank_zero": (lambda b: _patch(b, 8, struct.pack("<q", 0)),
                  "adapters.bin has an invalid adapter header: lora.rank must be >= 1"),
    "alpha_nan": (lambda b: _patch(b, 16, struct.pack("<d", float("nan"))),
                  "adapters.bin has an invalid adapter header: lora.alpha must be positive and finite"),
    "names_not_utf8": (lambda b: _patch(b, 36, b"\xff\xfe"), f"{MALFORMED_NAMES}: 'utf-8' codec"),
    "name_without_colon": (lambda b: b.replace(b"0:wq", b"0;wq", 1),
                           f"{MALFORMED_NAMES}: not enough values to unpack"),
    "layer_not_an_int": (lambda b: b.replace(b"0:wq", b"x:wq", 1),
                         f"{MALFORMED_NAMES}: invalid literal for int"),
    "unknown_target": (lambda b: b.replace(b"0:wq", b"0:zz", 1),
                       "adapters.bin has an invalid adapter header: unknown LoRA target matrix 'zz'"),
    "empty_name_blob": (lambda b: b[:32] + struct.pack("<I", 0) + b[36 + len(b"0:wq,0:wv"):],
                        f"{MALFORMED_NAMES}: not enough values to unpack"),
    "trailing_bytes": (lambda b: b + bytes(8), "adapters.bin has trailing bytes after the last array"),
    "version_2": (lambda b: _patch(b, 4, struct.pack("<I", 2)),
                  "adapters.bin has unsupported adapter checkpoint version 2"),
}


@pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
def test_corrupt_model_file_raises_schema_error(tmp_path, corruption):
    _, path, _ = write_tiny_checkpoints(tmp_path)
    corrupt, message = MODEL_CORRUPTIONS[corruption]
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(SchemaError, match=message):
        load_model(path)


@pytest.mark.parametrize("corruption", sorted(ADAPTER_CORRUPTIONS))
def test_corrupt_adapter_file_raises_schema_error(tmp_path, corruption):
    base, _, path = write_tiny_checkpoints(tmp_path)
    good = path.read_bytes()
    assert good[36:36 + 9] == b"0:wq,0:wv"
    corrupt, message = ADAPTER_CORRUPTIONS[corruption]
    path.write_bytes(corrupt(good))
    with pytest.raises(SchemaError, match=message):
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


VOCAB_CORRUPTIONS = {  # id: (file bytes, expected message); save_vocab writes neither of the last two
    "not_utf8": (b"stress\n\xff\xfecalm\n", "is not valid utf-8"),
    "blank_line": (b"alpha\n\nbeta\n", "vocab.txt:2 is a blank line"),
    "repeated_token": (b"alpha\nbeta\nalpha\n", "vocab.txt:3 repeats the vocab token of line 1"),
}


@pytest.mark.parametrize("corruption", sorted(VOCAB_CORRUPTIONS))
def test_corrupt_vocab_file_raises_schema_error(tmp_path, corruption):
    data, message = VOCAB_CORRUPTIONS[corruption]
    path = tmp_path / "vocab.txt"
    path.write_bytes(data)
    with pytest.raises(SchemaError, match=message):
        load_vocab(path)


ARRAY_LAYOUTS = {  # id: the (rows x cols) array, in this layout, of a float64 one
    "c_contiguous": lambda a: a,
    "transposed_view": lambda a: np.ascontiguousarray(a.T).T,
    "float32": lambda a: a.astype(np.float32),
}


@pytest.mark.parametrize("layout", sorted(ARRAY_LAYOUTS))
def test_saves_write_each_array_as_its_little_endian_float64_bytes(tmp_path, layout):
    am = attach_adapters(init_model(small_cfg()), LoraConfig(rank=2, seed=3, targets=("q", "v")))
    for p in am.base.parameters() + am.trainable_parameters():
        p.data = ARRAY_LAYOUTS[layout](p.data + 0.5)
    if layout == "transposed_view":
        assert not am.base.tok_emb.data.flags.c_contiguous
    # headers: magic, version and 8 x i64 (72 bytes); magic, version, rank,
    # alpha, seed, blob length and the blob b"0:wq,0:wv" (45 bytes)
    for save, model, header, arrays in (
            (save_model, am.base, 72, [p.data for p in am.base.parameters()]),
            (save_adapters, am, 45, [extract_trainable(am)])):
        save(tmp_path / "out.bin", model)
        assert (tmp_path / "out.bin").read_bytes()[header:] == b"".join(
            arr.astype("<f8").tobytes() for arr in arrays)


def test_staging_removes_a_dead_processes_temp_files_and_keeps_a_live_ones(tmp_path):
    pid = os.fork()  # a pid that is no live process once reaped
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    target = tmp_path / "summary.json"
    dead = [f"{target}.tmp{pid}", f"{target}.tmp{pid}.tmp{pid}"]
    kept = [f"{target}.tmp{os.getppid()}",  # a live process's, mid-staging
            f"{target}.tmp{pid}x", f"{target}.tmpx", f"{tmp_path / 'rounds.jsonl'}.tmp{pid}"]
    for path in dead + kept:
        open(path, "w", encoding="utf-8").close()
    with checkpoint.write_atomically(target) as [tmp]:
        open(tmp, "w", encoding="utf-8").close()
    assert not any(os.path.exists(path) for path in dead)
    assert all(os.path.exists(path) for path in kept) and target.exists()
