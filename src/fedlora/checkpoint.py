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
              are reserved for PAD/UNK/CLS). A blank line or a repeated
              token raises SchemaError naming the line.

A seed field holds the seed's 64-bit word in signed form, (seed + 2**63) %
2**64 - 2**63: a seed in [-2**63, 2**63) as it is, and one from the Python
API outside it (an `rng.derive` seed can reach 2**64 - 1) as the seed that
differs from it by 2**64. The rng functions mask seeds to 64 bits, so the
seed read back gives the same streams.

A file that is short, carries trailing bytes, or holds a header the model
or adapter config rejects raises SchemaError, and a length or model size
that exceeds the bytes left in the file is refused before any allocation.

Every file the program writes reaches its name through `write_atomically`:
each target is written under a temp name beside it, `{target}.tmp<pid>`,
once all are written they are moved into place with os.replace in the order
given, and on any exception the temp files left are removed, so no target is
left half-written. A process killed before it could remove its temp files
leaves them behind; the next staging of the same target removes every
`{target}.tmp<pid>` whose pid is no live process. The savers here stage
their own file; a run that stages its RUN_FILES passes them temp paths, and
the staging nests. Every text file the
program reads, here and in the config, data and cli modules, is opened with
`read_text`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import os
import re
import struct

import numpy as np

from .errors import ConfigError, SchemaError
from .lora import (AdaptedModel, LoraConfig, attach_adapters, extract_trainable, load_trainable,
                   trainable_param_count)
from .model import EncoderModel, ModelConfig, Vocab, build_model, param_shapes

MODEL_MAGIC = b"FLMC"
ADAPTER_MAGIC = b"FLLA"
VERSION = 1


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # another user's process
        pass
    return True


def _remove_stale_temps(path):
    """Remove `{path}.tmp<pid>` files, and their nested stages, whose pid is
    no live process: what a run killed while staging left behind."""
    path = os.fspath(path)
    for tmp in glob.glob(glob.escape(f"{path}.tmp") + "[0-9]*"):
        match = re.fullmatch(r"\.tmp(\d+)(\.tmp\d+)*", tmp[len(path):])
        if match and not _alive(int(match[1])):
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@contextlib.contextmanager
def write_atomically(*paths):
    """Yield a list of temp paths, one beside each of `paths`, for the block to
    write; staged as the module docstring says."""
    for path in paths:
        _remove_stale_temps(path)
    tmps = [f"{path}.tmp{os.getpid()}" for path in paths]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    finally:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@contextlib.contextmanager
def read_text(path, what: str, error: type, **open_kwargs):
    """open(path) for utf-8 text, where a file that is missing, cannot be read
    or is not utf-8 raises `error` naming `what` and path. A leading
    byte-order mark (as in Excel's "CSV UTF-8") is dropped."""
    try:
        with open(path, encoding="utf-8-sig", **open_kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not valid utf-8: {exc}") from exc
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}") from exc


def _write_array(fh, arr: np.ndarray):
    fh.write(np.ascontiguousarray(arr, dtype="<f8"))  # through the buffer: no bytes copy


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read(fh, n: int) -> bytes:
    left = _bytes_left(fh)
    if n > left:  # refuse before reading, so a bad length allocates nothing
        raise SchemaError(f"{fh.name}: checkpoint truncated: wanted {n} bytes, {left} left")
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
        raise SchemaError(f"{path} has unsupported {kind} checkpoint version {version}")


def _expect_end(fh, path):
    if fh.read(1):
        raise SchemaError(f"{path} has trailing bytes after the last array")


def _i64(seed: int) -> int:
    """The seed field of a header: seed's 64-bit word in signed form."""
    return (seed + 2 ** 63) % 2 ** 64 - 2 ** 63


def save_model(path, m: EncoderModel):
    with write_atomically(path) as [tmp], open(tmp, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<8q", *dataclasses.astuple(m.cfg)[:-1], _i64(m.cfg.seed)))
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
        for _, (rows, cols) in param_shapes(cfg):  # before any array is allocated
            left -= 8 * rows * cols
            if left < 0:
                raise SchemaError(f"{path} is too short for the model its header describes")
        m = build_model(cfg, lambda _tag, rows, cols: _read_array(fh, (rows, cols)))
        _expect_end(fh, path)
    return m


def save_adapters(path, am: AdaptedModel):
    cfg = am.lora_cfg
    names = ",".join(f"{li}:{name}" for li, name in am.adapters)
    blob = names.encode("utf-8")
    with write_atomically(path) as [tmp], open(tmp, "wb") as fh:
        fh.write(ADAPTER_MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<qdq", cfg.rank, cfg.alpha_or_rank, _i64(cfg.seed)))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        _write_array(fh, extract_trainable(am))


def _parse_adapter_names(path, blob: bytes) -> list[tuple[int, str]]:
    try:
        keys = []
        for entry in blob.decode("utf-8").split(","):
            li, name = entry.split(":")
            keys.append((int(li), name))
        return keys
    except ValueError as exc:  # also covers UnicodeDecodeError
        raise SchemaError(f"{path} has a malformed adapter name list: {exc}") from exc


def load_adapters(path, base: EncoderModel) -> AdaptedModel:
    with open(path, "rb") as fh:
        _read_preamble(fh, path, ADAPTER_MAGIC, "adapter")
        rank, alpha, seed = _unpack(fh, "<qdq")
        (blob_len,) = _unpack(fh, "<I")
        keys = _parse_adapter_names(path, _read(fh, blob_len))
        targets = tuple(dict.fromkeys(name for _, name in keys))
        try:
            am = attach_adapters(base, LoraConfig(rank=rank, alpha=alpha, targets=targets, seed=seed))
        except ConfigError as exc:
            raise SchemaError(f"{path} has an invalid adapter header: {exc}") from exc
        if list(am.adapters) != keys:
            raise SchemaError(f"{path} has an adapter layout that does not match the base model")
        load_trainable(am, _read_array(fh, (trainable_param_count(am)[0],)))
        _expect_end(fh, path)
    return am


def save_vocab(path, vocab: Vocab):
    with write_atomically(path) as [tmp], open(tmp, "w", encoding="utf-8") as fh:
        for token in vocab.id_to_token:
            fh.write(token + "\n")


def load_vocab(path) -> Vocab:
    with read_text(path, "vocab", SchemaError) as fh:
        tokens = [line.rstrip("\n") for line in fh]
    first_line = {}
    for line_no, token in enumerate(tokens, 1):
        if not token:
            raise SchemaError(f"{path}:{line_no} is a blank line, not a vocab token")
        if token in first_line:
            raise SchemaError(f"{path}:{line_no} repeats the vocab token of line {first_line[token]}")
        first_line[token] = line_no
    return Vocab(tokens)
