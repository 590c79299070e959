"""Binary checkpoint formats (little-endian).

Model file:   magic b"FLMC", u32 version, 8 x i64 config fields in
              ModelConfig field order (vocab_size, d_model, n_heads,
              n_layers, ff_dim, max_seq_len, n_classes, seed), then every
              parameter array as <f8 in the model's fixed enumeration order.
Adapter file: magic b"FLLA", u32 version, i64 rank, f8 alpha, i64 seed,
              u32 target-name blob length + utf-8 comma-joined "layer:name"
              entries, then the trainable vector theta as <f8, in
              `lora.extract_trainable` order (each adapter's A then B, then
              the classifier head weight and bias: the head is part of the
              trainable set, so it ships with the adapters).
Vocab file:   one token per line, utf-8; id = line number - 1 + 3 (ids 0-2
              are reserved for PAD/UNK/CLS).

A file that is short, carries trailing bytes, or holds a header the model
or adapter config rejects raises SchemaError, and a length or model size
that exceeds the bytes left in the file is refused before any allocation.
"""

from __future__ import annotations

import dataclasses
import os
import struct

import numpy as np

from .errors import ConfigError, SchemaError
from .lora import (AdaptedModel, LoraConfig, attach_adapters, extract_trainable, load_trainable,
                   trainable_param_count)
from .model import EncoderModel, ModelConfig, Vocab, init_model, param_shapes

MODEL_MAGIC = b"FLMC"
ADAPTER_MAGIC = b"FLLA"
VERSION = 1


def _write_array(fh, arr: np.ndarray):
    fh.write(arr.astype("<f8").tobytes())


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read(fh, n: int) -> bytes:
    left = _bytes_left(fh)
    if n > left:  # refuse before reading, so a bad length allocates nothing
        raise SchemaError(f"checkpoint truncated: wanted {n} bytes, {left} left")
    return fh.read(n)


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt)))


def _read_array(fh, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return np.frombuffer(_read(fh, n * 8), dtype="<f8").reshape(shape).copy()


def _read_preamble(fh, path, magic: bytes, kind: str):
    if fh.read(4) != magic:
        raise SchemaError(f"{path} is not a fedlora {kind} checkpoint")
    (version,) = _unpack(fh, "<I")
    if version != VERSION:
        raise SchemaError(f"unsupported {kind} checkpoint version {version}")


def _expect_end(fh, path):
    if fh.read(1):
        raise SchemaError(f"{path} has trailing bytes after the last array")


def save_model(path, m: EncoderModel):
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<8q", *dataclasses.astuple(m.cfg)))
        for p in m.parameters():
            _write_array(fh, p.data)


def load_model(path) -> EncoderModel:
    with open(path, "rb") as fh:
        _read_preamble(fh, path, MODEL_MAGIC, "model")
        cfg = ModelConfig(*_unpack(fh, "<8q"))
        try:
            cfg.validate()
        except ConfigError as exc:
            raise SchemaError(f"{path} has an invalid model header: {exc}") from exc
        left = _bytes_left(fh)
        for _, (rows, cols) in param_shapes(cfg):  # before init_model allocates the model
            left -= 8 * rows * cols
            if left < 0:
                raise SchemaError(f"{path} is too short for the model its header describes")
        m = init_model(cfg)  # establishes shapes; data overwritten below
        for p in m.parameters():
            p.data = _read_array(fh, p.data.shape)
        _expect_end(fh, path)
    return m


def save_adapters(path, am: AdaptedModel):
    cfg = am.lora_cfg
    names = ",".join(f"{li}:{name}" for li, name in am.adapters)
    blob = names.encode("utf-8")
    alpha = cfg.rank if cfg.alpha is None else cfg.alpha
    with open(path, "wb") as fh:
        fh.write(ADAPTER_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<qdq", cfg.rank, alpha, cfg.seed))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        _write_array(fh, extract_trainable(am))


def _parse_adapter_names(blob: bytes) -> list[tuple[int, str]]:
    try:
        keys = []
        for entry in blob.decode("utf-8").split(","):
            li, name = entry.split(":")
            keys.append((int(li), name))
        return keys
    except ValueError as exc:  # also covers UnicodeDecodeError
        raise SchemaError(f"malformed adapter name list: {exc}") from exc


def load_adapters(path, base: EncoderModel) -> AdaptedModel:
    with open(path, "rb") as fh:
        _read_preamble(fh, path, ADAPTER_MAGIC, "adapter")
        rank, alpha, seed = _unpack(fh, "<qdq")
        (blob_len,) = _unpack(fh, "<I")
        keys = _parse_adapter_names(_read(fh, blob_len))
        targets = tuple(dict.fromkeys(name for _, name in keys))
        try:
            am = attach_adapters(base, LoraConfig(rank=rank, alpha=alpha, targets=targets, seed=seed))
        except ConfigError as exc:
            raise SchemaError(f"{path} has an invalid adapter header: {exc}") from exc
        if list(am.adapters) != keys:
            raise SchemaError("adapter checkpoint layout does not match the base model")
        load_trainable(am, _read_array(fh, (trainable_param_count(am)[0],)))
        _expect_end(fh, path)
    return am


def save_vocab(path, vocab: Vocab):
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab.id_to_token:
            fh.write(token + "\n")


def load_vocab(path) -> Vocab:
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not valid utf-8: {exc}") from exc
    return Vocab(token_to_id={t: i + 3 for i, t in enumerate(tokens)}, id_to_token=tokens)
