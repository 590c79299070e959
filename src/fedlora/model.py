"""Word-level tokenizer and a tiny transformer encoder classifier.

The encoder is deliberately small (defaults: d_model=32, 2 layers, 2 heads)
and randomly initialized; it exercises the same architecture class that the
federated LoRA pipeline targets, at desk scale.

Base-parameter enumeration order is fixed (`param_shapes`): token
embedding, positional embedding, then per layer [wq, wk, wv, wo, ln1_gamma,
ln1_beta, ff1, ff2, ln2_gamma, ln2_beta], then classifier head weight and
bias. Only the model checkpoint depends on it: `save_model` writes
`parameters()` in this order and `load_model` reads them back through
`build_model`. Each parameter's init is keyed by its tag, not its position,
and the federation layer exchanges `lora.extract_trainable` (the adapters,
then the head), not the base.
"""

from __future__ import annotations

import math
import re
from collections import Counter
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


class Vocab:
    """Word ids: token i of `id_to_token` has id N_RESERVED + i, after PAD, UNK
    and CLS. `tokenize` reads `token_to_id`, and any other word is UNK_ID."""

    def __init__(self, id_to_token: list):
        self.id_to_token = id_to_token
        self.token_to_id = {tok: N_RESERVED + i for i, tok in enumerate(id_to_token)}


def word_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def build_vocab(texts: list[str], max_size: int) -> Vocab:
    """Frequency-ranked word vocabulary; ties broken lexicographically."""
    if max_size < N_RESERVED:
        raise ConfigError(f"vocab max_size must be >= {N_RESERVED}, got {max_size}")
    if not texts:
        raise DataError("cannot build vocabulary from an empty corpus")
    counts = Counter(tok for text in texts for tok in word_tokens(text))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([tok for tok, _ in ranked[: max_size - N_RESERVED]])


def tokenize(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """[CLS] + the ids of the first max_len - 1 words (UNK_ID outside the vocabulary;
    later words are not looked up), right-padded with PAD_ID to max_len >= 1."""
    ids = [CLS_ID] + [vocab.token_to_id.get(t, UNK_ID) for t in word_tokens(text)[:max_len - 1]]
    return ids + [PAD_ID] * (max_len - len(ids))


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
        for name in ("d_model", "n_heads", "n_layers", "ff_dim", "max_seq_len", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.vocab_size < N_RESERVED:
            raise ConfigError(f"model.vocab_size must be >= {N_RESERVED} (PAD, UNK and CLS), "
                              f"got {self.vocab_size}")
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


def build_model(cfg: ModelConfig, array_for) -> EncoderModel:
    """An EncoderModel whose parameters are `array_for(tag, rows, cols)`, called
    in `param_shapes` order."""
    params = {tag: Tensor(array_for(tag, *shape)) for tag, shape in param_shapes(cfg)}
    ends = {tag: params.pop(tag) for tag in ("tok_emb", "pos_emb", "head_w", "head_b")}
    layers = [{} for _ in range(cfg.n_layers)]
    for tag, t in params.items():
        li, name = tag.removeprefix("layer").split(".")
        layers[int(li)][name] = t
    return EncoderModel(cfg=cfg, layers=layers, **ends)


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

    return build_model(cfg, init)


def real_width(mask: np.ndarray) -> int:
    """1 + the last column of a PAD mask `ids != PAD_ID` where some row holds a
    real token, or 1 when none does (an empty set)."""
    real = np.flatnonzero(mask.any(axis=0))
    return int(real[-1]) + 1 if real.size else 1


def _pack_batch(ids_batch, max_seq_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, T) id array and its mask `ids != PAD_ID`, cut to the batch's `real_width`.

    Raises DataError for an empty or ragged batch, rows wider than
    max_seq_len, and rows whose column 0, the pooled position, is not CLS_ID
    (an all-PAD row among them).
    """
    try:
        ids = np.asarray(ids_batch, dtype=np.intp)
    except (TypeError, ValueError) as exc:
        raise DataError(f"ragged or non-integer batch ({exc}); pad every row to one length") from exc
    if ids.ndim != 2 or not ids.size:
        raise DataError(f"empty batch, or not a matrix of id rows: shape {ids.shape}")
    if ids.shape[1] > max_seq_len:
        raise DataError(f"sequence length {ids.shape[1]} exceeds max_seq_len {max_seq_len}")
    bad = np.flatnonzero(ids[:, 0] != CLS_ID)
    if bad.size:
        row = int(bad[0])
        raise DataError(f"row {row} of the batch starts with id {ids[row, 0]}, not CLS_ID {CLS_ID}")
    mask = ids != PAD_ID
    keep = real_width(mask)
    return ids[:, :keep], mask[:, :keep]


def forward(model, ids_batch) -> Tensor:
    """Logits [batch x n_classes] for a batch of PAD-filled id rows.

    `model` is an EncoderModel or anything exposing the same surface (the
    LoRA-adapted wrapper routes targeted matrices through its adapters).

    The whole batch runs at once: after `_pack_batch` drops the padding
    columns that no row needs, the B sequences of T tokens are stacked as
    (B*T) x d rows, so projections, adapters and feed-forward layers each
    take one op, each residual sum and the layer norm after it take one fused
    `autodiff.add_layer_norm`, and `autodiff.attention` keeps every sequence
    to its own keys. The attention mask is `ids != PAD_ID`: PAD keys get a
    -1e9 pre-softmax bias, which underflows to exactly zero attention weight
    in double precision, so the logits do not depend on the PAD embedding,
    and each row equals that example run alone up to summation order.

    Only the CLS rows reach the head, so the last layer computes k and v on
    all B*T rows but runs the q projection, the residual, wo, both layer
    norms and the feed-forward block on the B CLS rows only (one query per
    sequence in attention). The logits equal those of the full last layer
    followed by CLS pooling, up to summation order.
    """
    cfg = model.cfg
    ids, mask = _pack_batch(ids_batch, cfg.max_seq_len)
    n_seq, seq_len = ids.shape

    x = ad.add(ad.gather_rows(model.tok_emb, ids.ravel()),
               ad.gather_rows(model.pos_emb, np.tile(np.arange(seq_len), n_seq)))
    last = len(model.layers) - 1
    for li, layer in enumerate(model.layers):
        rows = x if li < last else ad.gather_rows(x, np.arange(n_seq) * seq_len)
        # q, k and v are passed straight in, so off the tape they are freed
        # when attention returns, not kept through the feed-forward block
        attn_out = model.linear(ad.attention(model.linear(rows, li, "wq"), model.linear(x, li, "wk"),
                                             model.linear(x, li, "wv"), mask, cfg.n_heads), li, "wo")
        x = ad.add_layer_norm(rows, attn_out, layer["ln1_gamma"], layer["ln1_beta"], LN_EPS)
        ff = model.linear(ad.relu(model.linear(x, li, "ff1")), li, "ff2")
        x = ad.add_layer_norm(x, ff, layer["ln2_gamma"], layer["ln2_beta"], LN_EPS)
    return ad.add(ad.matmul(x, model.head_w), model.head_b)
