"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

Define-by-run: ops executed inside a `with Graph() as g:` block are recorded
on the tape in insertion order; `g.backward(loss)` replays the tape in exact
reverse insertion order, accumulating gradients into `.grad` slots, and then
drops the tape. Ops executed with no open graph run forward-only (evaluation
mode).

`Tensor.requires_grad` is the one record of gradient need: an op's output
needs a gradient iff one of its inputs does, and an op with only frozen
inputs is not taped. A frozen input never receives a gradient; matmul,
gather_rows, layer_norm and attention do not even compute one. Gradients
are summed into `.grad`; callers zero them per batch (see zero_grads).

`backward` checks one thing: the loss must be an output on this graph's
tape. That rejects an empty tape (no op ran, or backward already ran and
cleared it), another graph's loss, and a loss built only from frozen tensors.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError


class Tensor:
    """Dense 2-D float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_STACK: list["Graph"] = []


def _active() -> "Graph | None":
    return _STACK[-1] if _STACK else None


class Graph:
    """Tape of op records; topological order equals insertion order."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self):
        _STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _STACK.pop()
        return False

    def record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self._nodes.append((out, backward_fn))

    def accumulate(self, t: Tensor, delta: np.ndarray):
        """Add `delta` to t.grad unless t needs no gradient."""
        if not t.requires_grad:
            return
        if t.grad is None:
            t.grad = delta.copy()
        else:
            t.grad += delta

    def backward(self, loss: Tensor):
        if not any(out is loss for out, _ in reversed(self._nodes)):
            raise StateError("loss is not an output on this graph's tape (empty tape, backward "
                             "already ran, another graph's loss, or a loss that needs no gradient)")
        if loss.data.shape != (1, 1):
            raise ShapeError(f"loss must be scalar (1x1), got {loss.data.shape}")
        loss.grad = np.ones((1, 1))
        try:
            for out, backward_fn in reversed(self._nodes):
                if out.grad is not None:
                    backward_fn(out.grad)
        finally:
            # each node's closure refers back to this graph; dropping the nodes
            # breaks that cycle, so the activations are freed now, not by the GC
            self._nodes.clear()


def zero_grads(tensors: Sequence[Tensor]):
    for t in tensors:
        t.grad = None


def _emit(out_data: np.ndarray, backward_fn, *inputs: Tensor) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    g = _active()
    if g is not None and out.requires_grad:
        g.record(out, lambda grad_out, fn=backward_fn, graph=g: fn(graph, grad_out))
    return out


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} x {b.data.shape}")

    def backward(g, grad_out):
        if a.requires_grad:
            g.accumulate(a, grad_out @ b.data.T)
        if b.requires_grad:
            g.accumulate(b, a.data.T @ grad_out)

    return _emit(a.data @ b.data, backward, a, b)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, n) row broadcast over a's rows."""
    if a.data.shape != b.data.shape and not (
        b.data.shape == (1, a.data.shape[1])
    ):
        raise ShapeError(f"add shapes disagree: {a.data.shape} + {b.data.shape}")
    row_broadcast = b.data.shape != a.data.shape

    def backward(g, grad_out):
        g.accumulate(a, grad_out)
        if row_broadcast:
            g.accumulate(b, grad_out.sum(axis=0, keepdims=True))
        else:
            g.accumulate(b, grad_out)

    return _emit(a.data + b.data, backward, a, b)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g, grad_out):
        g.accumulate(a, grad_out * c)

    return _emit(a.data * c, backward, a)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g, grad_out):
        g.accumulate(a, grad_out * mask)

    return _emit(np.where(mask, a.data, 0.0), backward, a)


def transpose(a: Tensor) -> Tensor:
    def backward(g, grad_out):
        g.accumulate(a, grad_out.T)

    return _emit(a.data.T.copy(), backward, a)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g, grad_out):
        full = np.zeros_like(a.data)
        full[:, start:stop] = grad_out
        g.accumulate(a, full)

    return _emit(a.data[:, start:stop].copy(), backward, a)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def backward(g, grad_out):
        full = np.zeros_like(a.data)
        full[start:stop, :] = grad_out
        g.accumulate(a, full)

    return _emit(a.data[start:stop, :].copy(), backward, a)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    widths = [p.data.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward(g, grad_out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            g.accumulate(p, grad_out[:, lo:hi])

    return _emit(np.concatenate([p.data for p in parts], axis=1), backward, *parts)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    heights = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + heights)

    def backward(g, grad_out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            g.accumulate(p, grad_out[lo:hi, :])

    return _emit(np.concatenate([p.data for p in parts], axis=0), backward, *parts)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DataError(f"row index out of range for table of {table.data.shape[0]} rows")

    def backward(g, grad_out):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, grad_out)
            g.accumulate(table, full)

    return _emit(table.data[idx, :].copy(), backward, table)


def softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g, grad_out):
        dot = (grad_out * s).sum(axis=1, keepdims=True)
        g.accumulate(x, s * (grad_out - dot))

    return _emit(s, backward, x)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization, then affine by gamma/beta rows of width d."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    d = x.data.shape[1]
    if gamma.data.shape != (1, d) or beta.data.shape != (1, d):
        raise ShapeError(
            f"layer_norm affine shapes must be (1, {d}), got {gamma.data.shape} and {beta.data.shape}"
        )
    xc = x.data - x.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + eps)
    xhat = xc * inv

    def backward(g, grad_out):
        if gamma.requires_grad:
            g.accumulate(gamma, (grad_out * xhat).sum(axis=0, keepdims=True))
        if beta.requires_grad:
            g.accumulate(beta, grad_out.sum(axis=0, keepdims=True))
        if x.requires_grad:
            dxhat = grad_out * gamma.data
            m1 = dxhat.mean(axis=1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
            g.accumulate(x, (dxhat - m1 - xhat * m2) * inv)

    return _emit(gamma.data * xhat + beta.data, backward, x, gamma, beta)


def cross_entropy(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean softmax cross-entropy; backward emits (softmax - onehot) / batch."""
    n, c = logits.data.shape
    idx = np.asarray(labels, dtype=np.intp)
    if idx.shape != (n,):
        raise ShapeError(f"expected {n} labels, got {idx.shape}")
    bad = np.nonzero((idx < 0) | (idx >= c))[0]
    if bad.size:
        raise DataError(f"label out of range [0, {c}) at record {int(bad[0])}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), idx].mean()

    def backward(g, grad_out):
        probs = np.exp(logp)
        probs[np.arange(n), idx] -= 1.0
        g.accumulate(logits, grad_out[0, 0] * probs / n)

    return _emit(np.array([[loss]]), backward, logits)


MASK_BIAS = -1e9  # underflows to exactly zero weight after the softmax shift


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask, n_heads: int) -> Tensor:
    """Masked multi-head scaled dot-product attention over packed sequences.

    q, k and v hold B sequences of T rows each, stacked as (B*T, d); key_mask
    is (B, T), true at real tokens. Every head attends within its own
    sequence only, and a masked key gets a MASK_BIAS pre-softmax bias, so its
    weight is exactly zero.
    """
    mask = np.asarray(key_mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"attention key_mask must be (B, T), got shape {mask.shape}")
    n_seq, seq_len = mask.shape
    n, d = q.data.shape
    if n != n_seq * seq_len or k.data.shape != (n, d) or v.data.shape != (n, d):
        raise ShapeError(
            f"attention q, k, v must be ({n_seq * seq_len}, d) for a {mask.shape} mask, "
            f"got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention width {d} does not split into {n_heads} heads")
    dh = d // n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    def split(x):  # (B*T, d) -> (B, H, T, dh)
        return x.reshape(n_seq, seq_len, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # (B, H, T, dh) -> (B*T, d)
        return x.transpose(0, 2, 1, 3).reshape(n, d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    key_bias = np.where(mask, 0.0, MASK_BIAS)[:, None, None, :]
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * inv_sqrt_dh + key_bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g, grad_out):
        dctx = split(grad_out)
        dp = dctx @ vh.transpose(0, 1, 3, 2)
        dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * inv_sqrt_dh
        if q.requires_grad:
            g.accumulate(q, merge(dscores @ kh))
        if k.requires_grad:
            g.accumulate(k, merge(dscores.transpose(0, 1, 3, 2) @ qh))
        if v.requires_grad:
            g.accumulate(v, merge(p.transpose(0, 1, 3, 2) @ dctx))

    return _emit(merge(p @ vh), backward, q, k, v)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Central-difference check of f's gradient w.r.t. params.

    f rebuilds the forward pass from current param values and returns the
    scalar loss tensor. Returns the max relative error over all coordinates,
    with denominator max(|analytic|, |numeric|, 1e-8).
    """
    if not 0 < eps <= 1e-2:
        raise ConfigError(f"grad_check eps must be in (0, 1e-2], got {eps}")
    zero_grads(params)
    with Graph() as g:
        loss = f()
    g.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    max_err = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lo_hi = f().data[0, 0]
            flat[i] = orig - eps
            lo_lo = f().data[0, 0]
            flat[i] = orig
            num = (lo_hi - lo_lo) / (2.0 * eps)
            a = ana.ravel()[i]
            err = abs(a - num) / max(abs(a), abs(num), 1e-8)
            max_err = max(max_err, err)
    return max_err
