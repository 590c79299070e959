"""Low-rank adaptation of the encoder: freeze the base, train delta = B @ A.

An adapter on a (d x k) base matrix holds A (r x k) and B (d x r); the
effective weight is W0 + (alpha / r) * B @ A. The scale alpha / r belongs to
the model, not to an adapter: every adapter of an `AdaptedModel` uses its
`lora_cfg.scale`. An adapted projection is one `autodiff.lora_linear` op,
x @ W0 + (alpha / r) * (x @ B) @ A, so the effective weight is never formed
during training. B starts at zero, so a freshly adapted model is exactly the
base model. The trainable set is the adapters plus the classifier head,
flattened in the order of `AdaptedModel.trainable_parameters()` (layer
ascending, then matrix name in `model.LAYER_MATRIX_NAMES` order, A before B,
head last) — that ordering is the wire contract with the federation layer
and the adapter checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import Tensor
from .errors import ConfigError, ProtocolError
from .model import LAYER_MATRIX_NAMES, EncoderModel, ModelConfig, _xavier, build_model, param_shapes

_ALIASES = {"q": "wq", "k": "wk", "v": "wv", "o": "wo", **{n: n for n in LAYER_MATRIX_NAMES}}


def canonical_target(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ConfigError(f"unknown LoRA target matrix {name!r}; choose from Q, K, V, O, FF1, FF2")
    return _ALIASES[key]


@dataclass
class LoraConfig:
    rank: int = 4
    alpha: float | None = None
    targets: tuple[str, ...] = ("q", "v")
    seed: int = 0

    @property
    def alpha_or_rank(self) -> float:  # an unset alpha means alpha = rank, i.e. scale 1
        return self.rank if self.alpha is None else self.alpha

    @property
    def scale(self) -> float:
        return self.alpha_or_rank / self.rank

    def canonical_targets(self) -> tuple[str, ...]:
        names = {canonical_target(t) for t in self.targets}
        return tuple(n for n in LAYER_MATRIX_NAMES if n in names)

    def validate(self, model_cfg: ModelConfig):
        """ConfigError for a bad field, or unless rank < min(d, k) for each
        (d x k) matrix it targets in a model_cfg encoder (every layer has the
        same shapes). This is the one rank check."""
        if self.rank < 1:
            raise ConfigError(f"lora.rank must be >= 1, got {self.rank}")
        if self.alpha is not None and not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"lora.alpha must be positive and finite, got {self.alpha}")
        if not self.targets:
            raise ConfigError("lora.targets must not be empty")
        shapes = dict(param_shapes(model_cfg))
        for name in self.canonical_targets():
            limit = min(shapes[f"layer0.{name}"])
            if self.rank >= limit:
                raise ConfigError(f"lora.rank {self.rank} must be < min(d, k) = {limit} for matrix {name}")


class Adapter(NamedTuple):
    a: Tensor  # (r x k)
    b: Tensor  # (d x r)


def _trainable_copy(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


class AdaptedModel:
    """Frozen EncoderModel plus trainable adapters and classifier head.

    The base model is shared read-only (clones reuse it); the constructor
    copies the adapters and the head it is given, so they are private to each
    instance.
    """

    def __init__(self, base: EncoderModel, lora_cfg: LoraConfig,
                 adapters: dict, head_w: Tensor, head_b: Tensor):
        self.base = base
        # the frozen surface model.forward reads, shared with the base
        self.cfg, self.tok_emb, self.pos_emb = base.cfg, base.tok_emb, base.pos_emb
        self.layers = base.layers
        self.lora_cfg = lora_cfg
        # {(layer_idx, name): Adapter}, fixed order
        self.adapters = {key: Adapter(*map(_trainable_copy, adp)) for key, adp in adapters.items()}
        self.head_w, self.head_b = _trainable_copy(head_w), _trainable_copy(head_b)

    def linear(self, x: Tensor, layer_idx: int, name: str) -> Tensor:
        w = self.layers[layer_idx][name]
        adapter = self.adapters.get((layer_idx, name))
        if adapter is None:
            return ad.matmul(x, w)
        return ad.lora_linear(x, w, adapter.b, adapter.a, self.lora_cfg.scale)

    def trainable_parameters(self) -> list[Tensor]:
        return [t for adapter in self.adapters.values() for t in adapter] + [self.head_w, self.head_b]

    def clone(self) -> "AdaptedModel":
        return AdaptedModel(self.base, self.lora_cfg, self.adapters, self.head_w, self.head_b)


def attach_adapters(base: EncoderModel, cfg: LoraConfig) -> AdaptedModel:
    """Wrap a plain encoder with zero-initialized adapters (B=0 => no-op)."""
    cfg.validate(base.cfg)
    adapters = {}
    for li in range(base.cfg.n_layers):
        for name in cfg.canonical_targets():
            d, k = base.layers[li][name].data.shape
            a_seed = rng.derive(cfg.seed, f"lora.layer{li}.{name}.a")
            adapters[(li, name)] = Adapter(a=Tensor(_xavier(a_seed, cfg.rank, k)),
                                           b=Tensor(np.zeros((d, cfg.rank))))
    return AdaptedModel(base, cfg, adapters, base.head_w, base.head_b)


def merge_adapters(am: AdaptedModel) -> EncoderModel:
    """Materialize W0 + scale * B @ A into a plain encoder; adapters are discarded."""
    if not isinstance(am, AdaptedModel):
        raise TypeError(f"merge_adapters expects an AdaptedModel, got {type(am).__name__}")

    def merged(tag, _rows, _cols):  # a copy of what model.forward reads for the tag
        if not tag.startswith("layer"):
            return getattr(am, tag).data.copy()
        li, name = tag.removeprefix("layer").split(".")
        w, adapter = am.layers[int(li)][name].data, am.adapters.get((int(li), name))
        return w.copy() if adapter is None else w + am.lora_cfg.scale * (adapter.b.data @ adapter.a.data)

    return build_model(am.cfg, merged)


def trainable_param_count(am: AdaptedModel) -> tuple[int, dict]:
    """Total trainable parameters with a per-component breakdown.

    Every component is a pair: each adapter's A and B (r*(d+k) scalars), then
    the head weight and bias (d*n_classes + n_classes).
    """
    pairs = {f"layer{li}.{name}": adapter for (li, name), adapter in am.adapters.items()}
    pairs["head"] = (am.head_w, am.head_b)
    breakdown = {name: w.data.size + b.data.size for name, (w, b) in pairs.items()}
    return sum(breakdown.values()), breakdown


def extract_trainable(am: AdaptedModel) -> np.ndarray:
    """Flatten the trainable set into one float64 vector (fixed order)."""
    return np.concatenate([p.data.ravel() for p in am.trainable_parameters()])


def load_trainable(am: AdaptedModel, vec: np.ndarray):
    """Inverse of extract_trainable; load(extract(am)) is a bit-exact no-op.
    Writes into the existing arrays, so a load allocates no new ones."""
    vec = np.asarray(vec, dtype=np.float64)
    params = am.trainable_parameters()
    expected = sum(p.data.size for p in params)
    if vec.ndim != 1 or vec.size != expected:
        raise ProtocolError(
            f"trainable vector length {vec.size} does not match expected {expected}"
        )
    offset = 0
    for p in params:
        n = p.data.size
        p.data[...] = vec[offset:offset + n].reshape(p.data.shape)
        offset += n
