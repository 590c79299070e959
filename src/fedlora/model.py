"""Word-level tokenizer and a tiny transformer encoder classifier.

The encoder is deliberately small (defaults: d_model=32, 2 layers, 2 heads)
and randomly initialized; it exercises the same architecture class that the
federated LoRA pipeline targets, at desk scale.

Trainable-parameter enumeration order is fixed and load-bearing (the
federation layer exchanges flattened vectors): token embedding, positional
embedding, then per layer [wq, wk, wv, wo, ln1_gamma, ln1_beta, ff1, ff2,
ln2_gamma, ln2_beta], then classifier head weight and bias.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import Tensor
from .errors import ConfigError, DataError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
N_RESERVED = 3

LN_EPS = 1e-5

_TOKEN_RE = re.compile(r"[a-z0-9']+")

LAYER_MATRIX_NAMES = ("wq", "wk", "wv", "wo", "ff1", "ff2")


@dataclass
class Vocab:
    token_to_id: dict
    id_to_token: list

    @property
    def size(self) -> int:
        return N_RESERVED + len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def word_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def build_vocab(corpus, max_size: int) -> Vocab:
    """Frequency-ranked word vocabulary; ties broken lexicographically."""
    if max_size < N_RESERVED:
        raise ConfigError(f"vocab max_size must be >= {N_RESERVED}, got {max_size}")
    counts: dict[str, int] = {}
    n_docs = 0
    for item in corpus:
        text = item.text if hasattr(item, "text") else item
        n_docs += 1
        for tok in word_tokens(text):
            counts[tok] = counts.get(tok, 0) + 1
    if n_docs == 0:
        raise DataError("cannot build vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - N_RESERVED]]
    token_to_id = {tok: N_RESERVED + i for i, tok in enumerate(kept)}
    return Vocab(token_to_id=token_to_id, id_to_token=kept)


def tokenize(text: str, vocab: Vocab, max_len: int) -> tuple[list[int], list[int]]:
    """[CLS] + word ids, truncated to max_len, right-padded; mask marks real tokens."""
    ids = [CLS_ID] + [vocab.lookup(t) for t in word_tokens(text)]
    ids = ids[:max_len]
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    return ids + [PAD_ID] * pad, mask + [0] * pad


# ---------------------------------------------------------------------------
# encoder


@dataclass
class ModelConfig:
    vocab_size: int = 8000
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 2
    ff_dim: int = 64
    max_seq_len: int = 32
    n_classes: int = 2
    seed: int = 0

    def validate(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "ff_dim", "max_seq_len", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"model.d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.n_classes != 2:
            raise ConfigError(f"model.n_classes must be 2 for the stress task, got {self.n_classes}")


def _xavier(seed: int, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform_array(seed, fan_in * fan_out, -s, s).reshape(fan_in, fan_out)


@dataclass
class EncoderModel:
    cfg: ModelConfig
    tok_emb: Tensor
    pos_emb: Tensor
    layers: list[dict]
    head_w: Tensor
    head_b: Tensor

    def linear(self, x: Tensor, layer_idx: int, name: str) -> Tensor:
        return ad.matmul(x, self.layers[layer_idx][name])

    def parameters(self) -> list[Tensor]:
        """All parameters in the fixed enumeration order (layer dicts keep `param_shapes` order)."""
        return [self.tok_emb, self.pos_emb, *(t for layer in self.layers for t in layer.values()),
                self.head_w, self.head_b]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


def param_shapes(cfg: ModelConfig):
    """Yield (init tag, shape) for every parameter, in the fixed enumeration order."""
    d, ff, c = cfg.d_model, cfg.ff_dim, cfg.n_classes
    yield "tok_emb", (cfg.vocab_size, d)
    yield "pos_emb", (cfg.max_seq_len, d)
    layer = (("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)),
             ("ln1_gamma", (1, d)), ("ln1_beta", (1, d)), ("ff1", (d, ff)), ("ff2", (ff, d)),
             ("ln2_gamma", (1, d)), ("ln2_beta", (1, d)))
    for li in range(cfg.n_layers):
        for name, shape in layer:
            yield f"layer{li}.{name}", shape
    yield "head_w", (d, c)
    yield "head_b", (1, c)


def init_model(cfg: ModelConfig) -> EncoderModel:
    """Seeded Xavier-uniform init; bit-reproducible per seed."""
    cfg.validate()

    def init(tag, rows, cols):
        if tag.endswith("_gamma"):
            return np.ones((rows, cols))
        if tag.endswith("_beta") or tag == "head_b":
            return np.zeros((rows, cols))
        if tag.endswith("_emb"):
            # embedding tables are lookups, not matmuls: scale by d on both fans
            # so token content is not drowned out by positional embeddings
            s = math.sqrt(6.0 / (cols + cols))
            return rng.uniform_array(rng.derive(cfg.seed, tag), rows * cols, -s, s).reshape(rows, cols)
        return _xavier(rng.derive(cfg.seed, tag), rows, cols)

    params = {tag: Tensor(init(tag, *shape)) for tag, shape in param_shapes(cfg)}
    ends = {tag: params.pop(tag) for tag in ("tok_emb", "pos_emb", "head_w", "head_b")}
    layers = [{} for _ in range(cfg.n_layers)]
    for tag, t in params.items():
        li, name = tag.removeprefix("layer").split(".")
        layers[int(li)][name] = t
    return EncoderModel(cfg=cfg, layers=layers, **ends)


def _pack_batch(ids_batch, mask_batch, max_seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) id and boolean mask arrays, cut after the last column holding a
    real token in any row.

    Raises DataError for an empty or ragged batch, rows wider than
    max_seq_len, and rows without a real token.
    """
    if len(ids_batch) != len(mask_batch):
        raise DataError(f"{len(ids_batch)} id rows but {len(mask_batch)} mask rows")
    if not len(ids_batch):
        raise DataError("empty batch")
    widths = {len(row) for row in ids_batch} | {len(row) for row in mask_batch}
    if len(widths) != 1:
        raise DataError(f"ragged batch: row widths {sorted(widths)}; pad every row to one length")
    width = widths.pop()
    if width > max_seq_len:
        raise DataError(f"sequence length {width} exceeds max_seq_len {max_seq_len}")
    mask = np.asarray(mask_batch) != 0
    empty = np.nonzero(~mask.any(axis=1))[0]
    if empty.size:
        raise DataError(f"row {int(empty[0])} of the batch has no real token")
    keep = int(np.nonzero(mask.any(axis=0))[0][-1]) + 1
    ids = np.asarray(ids_batch, dtype=np.intp)
    return ids[:, :keep], mask[:, :keep]


def forward(model, ids_batch, mask_batch) -> Tensor:
    """Logits [batch x n_classes] for padded id sequences with attention masks.

    `model` is an EncoderModel or anything exposing the same surface (the
    LoRA-adapted wrapper routes targeted matrices through its adapters).

    The whole batch runs at once: after `_pack_batch` drops the padding
    columns that no row needs, the B sequences of T tokens are stacked as
    (B*T) x d rows, so projections, adapters, layer norm and feed-forward
    layers each take one op, and `autodiff.attention` keeps every sequence
    to its own keys. Masked keys get a -1e9 pre-softmax bias, which
    underflows to exactly zero attention weight in double precision, so the
    logits do not depend on padding content, and each row equals that
    example run alone up to summation order.
    """
    cfg = model.cfg
    ids, mask = _pack_batch(ids_batch, mask_batch, cfg.max_seq_len)
    n_seq, seq_len = ids.shape

    x = ad.add(ad.gather_rows(model.tok_emb, ids.ravel()),
               ad.gather_rows(model.pos_emb, np.tile(np.arange(seq_len), n_seq)))
    for li, layer in enumerate(model.layers):
        q = model.linear(x, li, "wq")
        k = model.linear(x, li, "wk")
        v = model.linear(x, li, "wv")
        attn_out = model.linear(ad.attention(q, k, v, mask, cfg.n_heads), li, "wo")
        x = ad.layer_norm(ad.add(x, attn_out), layer["ln1_gamma"], layer["ln1_beta"], LN_EPS)
        ff = model.linear(ad.relu(model.linear(x, li, "ff1")), li, "ff2")
        x = ad.layer_norm(ad.add(x, ff), layer["ln2_gamma"], layer["ln2_beta"], LN_EPS)
    cls = ad.gather_rows(x, np.arange(n_seq) * seq_len)
    return ad.add(ad.matmul(cls, model.head_w), model.head_b)
