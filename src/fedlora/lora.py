"""Low-rank adaptation of the encoder: freeze the base, train delta = B @ A.

An adapter on a (d x k) base matrix holds A (r x k) and B (d x r); the
effective weight is W0 + (alpha / r) * B @ A. B starts at zero, so a freshly
adapted model is exactly the base model. The trainable set is the adapters
plus the classifier head, flattened in the order of
`AdaptedModel.trainable_parameters()` (layer ascending, then matrix name in
`model.LAYER_MATRIX_NAMES` order, A before B, head last) — that ordering is
the wire contract with the federation layer and the adapter checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng
from .autodiff import Tensor
from .errors import ConfigError, ProtocolError
from .model import LAYER_MATRIX_NAMES, EncoderModel, _xavier

_ALIASES = {"q": "wq", "k": "wk", "v": "wv", "o": "wo", **{n: n for n in LAYER_MATRIX_NAMES}}


def canonical_target(name: str) -> str:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ConfigError(f"unknown LoRA target matrix {name!r}; choose from Q, K, V, O, FF1, FF2")
    return _ALIASES[key]


@dataclass
class LoraConfig:
    rank: int = 4
    alpha: float | None = None  # None -> alpha = rank, i.e. scale 1
    targets: tuple = ("q", "v")
    seed: int = 0

    @property
    def scale(self) -> float:
        a = self.rank if self.alpha is None else self.alpha
        return a / self.rank

    def canonical_targets(self) -> tuple[str, ...]:
        names = {canonical_target(t) for t in self.targets}
        return tuple(n for n in LAYER_MATRIX_NAMES if n in names)

    def validate(self):
        if self.rank < 1:
            raise ConfigError(f"lora.rank must be >= 1, got {self.rank}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"lora.alpha must be positive, got {self.alpha}")
        if not self.targets:
            raise ConfigError("lora.targets must not be empty")
        self.canonical_targets()


@dataclass
class Adapter:
    a: Tensor  # (r x k)
    b: Tensor  # (d x r)
    scale: float

    def delta(self) -> Tensor:
        """scale * B @ A, the low-rank weight update."""
        return Tensor(self.scale * (self.b.data @ self.a.data))


class AdaptedModel:
    """Frozen EncoderModel plus trainable adapters and classifier head.

    The base model is shared read-only (clones reuse it); the adapters and
    the head copies are private to each instance.
    """

    def __init__(self, base: EncoderModel, lora_cfg: LoraConfig,
                 adapters: dict, head_w: Tensor, head_b: Tensor):
        self.base = base
        self.lora_cfg = lora_cfg
        self.adapters = adapters  # {(layer_idx, name): Adapter}, fixed order
        self.head_w = head_w
        self.head_b = head_b

    # surface shared with EncoderModel (see model.forward)
    @property
    def cfg(self):
        return self.base.cfg

    @property
    def tok_emb(self):
        return self.base.tok_emb

    @property
    def pos_emb(self):
        return self.base.pos_emb

    @property
    def layers(self):
        return self.base.layers

    def linear(self, x: Tensor, layer_idx: int, name: str) -> Tensor:
        adapter = self.adapters.get((layer_idx, name))
        out = ad.matmul(x, self.base.layers[layer_idx][name])
        if adapter is not None:
            low = ad.matmul(ad.matmul(x, adapter.b), adapter.a)
            out = ad.add(out, ad.scale(low, adapter.scale))
        return out

    def trainable_parameters(self) -> list[Tensor]:
        out = []
        for adapter in self.adapters.values():
            out.extend([adapter.a, adapter.b])
        out.extend([self.head_w, self.head_b])
        return out

    def clone(self) -> "AdaptedModel":
        adapters = {}
        for key, adp in self.adapters.items():
            a = Tensor(adp.a.data.copy(), requires_grad=True)
            b = Tensor(adp.b.data.copy(), requires_grad=True)
            adapters[key] = Adapter(a=a, b=b, scale=adp.scale)
        return AdaptedModel(
            base=self.base,
            lora_cfg=self.lora_cfg,
            adapters=adapters,
            head_w=Tensor(self.head_w.data.copy(), requires_grad=True),
            head_b=Tensor(self.head_b.data.copy(), requires_grad=True),
        )


def attach_adapters(base: EncoderModel, cfg: LoraConfig) -> AdaptedModel:
    """Wrap a plain encoder with zero-initialized adapters (B=0 => no-op)."""
    cfg.validate()
    adapters = {}
    for li in range(base.cfg.n_layers):
        for name in cfg.canonical_targets():
            d, k = base.layers[li][name].data.shape
            if cfg.rank >= min(d, k):
                raise ConfigError(
                    f"lora.rank {cfg.rank} must be < min(d, k) = {min(d, k)} for matrix {name}"
                )
            a_seed = rng.derive(cfg.seed, f"lora.layer{li}.{name}.a")
            adapters[(li, name)] = Adapter(
                a=Tensor(_xavier(a_seed, cfg.rank, k), requires_grad=True),
                b=Tensor(np.zeros((d, cfg.rank)), requires_grad=True),
                scale=cfg.scale,
            )
    return AdaptedModel(
        base=base,
        lora_cfg=cfg,
        adapters=adapters,
        head_w=Tensor(base.head_w.data.copy(), requires_grad=True),
        head_b=Tensor(base.head_b.data.copy(), requires_grad=True),
    )


def merge_adapters(am: AdaptedModel) -> EncoderModel:
    """Materialize W0 + delta into a plain encoder; adapters are discarded."""
    if isinstance(am, EncoderModel):
        raise TypeError("model is already a plain encoder; nothing to merge")
    if not isinstance(am, AdaptedModel):
        raise TypeError(f"merge_adapters expects an AdaptedModel, got {type(am).__name__}")
    base = am.base
    layers = []
    for li, layer in enumerate(base.layers):
        merged = {}
        for name, tensor in layer.items():
            adapter = am.adapters.get((li, name))
            data = tensor.data.copy() if adapter is None else tensor.data + adapter.delta().data
            merged[name] = Tensor(data)
        layers.append(merged)
    return EncoderModel(
        cfg=base.cfg,
        tok_emb=Tensor(base.tok_emb.data.copy()),
        pos_emb=Tensor(base.pos_emb.data.copy()),
        layers=layers,
        head_w=Tensor(am.head_w.data.copy()),
        head_b=Tensor(am.head_b.data.copy()),
    )


def trainable_param_count(am: AdaptedModel) -> tuple[int, dict]:
    """Total trainable parameters with a per-component breakdown.

    Every component is a consecutive pair in `trainable_parameters()`: each
    adapter's A and B (r*(d+k) scalars), then the head weight and bias
    (d*n_classes + n_classes).
    """
    sizes = [p.data.size for p in am.trainable_parameters()]
    names = [f"layer{li}.{name}" for li, name in am.adapters] + ["head"]
    breakdown = {name: sizes[2 * i] + sizes[2 * i + 1] for i, name in enumerate(names)}
    return sum(sizes), breakdown


def extract_trainable(am: AdaptedModel) -> np.ndarray:
    """Flatten the trainable set into one float64 vector (fixed order)."""
    return np.concatenate([p.data.ravel() for p in am.trainable_parameters()])


def load_trainable(am: AdaptedModel, vec: np.ndarray):
    """Inverse of extract_trainable; load(extract(am)) is a bit-exact no-op."""
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
        p.data = vec[offset:offset + n].reshape(p.data.shape).copy()
        offset += n
