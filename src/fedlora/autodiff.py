"""Reverse-mode automatic differentiation over dense 2-D float64 tensors.

Define-by-run: ops executed inside a `with Graph() as g:` block are recorded
on the tape in insertion order; `g.backward(loss)` replays the tape in exact
reverse insertion order, accumulating gradients into `.grad` slots. Each node
is taken off the tape as it runs and is freed once it has run, with its
closure, the arrays it saved and its output's gradient, so the tape shrinks
as the backward unwinds. Ops executed with no open graph run forward-only
(evaluation mode).

`Tensor.requires_grad` is the one record of gradient need: an op's output
needs a gradient iff one of its inputs does, and an op with only frozen
inputs is not taped. A frozen input never receives a gradient; matmul,
lora_linear, gather_rows, layer_norm, add_layer_norm and attention do not
even compute one.
Gradients are summed into `.grad`; callers zero them per batch (see
zero_grads).

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
        """Add `delta` to t.grad unless t needs no gradient. The first delta
        becomes t.grad itself, so an op passes an array that nothing else holds."""
        if not t.requires_grad:
            return
        if t.grad is None:
            t.grad = delta
        else:
            t.grad += delta

    def backward(self, loss: Tensor):
        """Run the tape backward from `loss`, popping each node as it runs: a
        node, its saved arrays and its output's gradient are freed once it has
        run, so the step's peak stays near what the forward left live. The tape
        is empty afterwards, however the backward ends."""
        if not any(out is loss for out, _ in reversed(self._nodes)):
            raise StateError("loss is not an output on this graph's tape (empty tape, backward "
                             "already ran, another graph's loss, or a loss that needs no gradient)")
        if loss.data.shape != (1, 1):
            raise ShapeError(f"loss must be scalar (1x1), got {loss.data.shape}")
        loss.grad = np.ones((1, 1))
        nodes = self._nodes
        try:
            while nodes:
                out, backward_fn = nodes.pop()  # rebinding frees the node that ran before
                if out.grad is not None:
                    backward_fn(out.grad)
        finally:
            # each node's closure refers back to this graph; dropping the nodes
            # breaks that cycle, so the activations are freed now, not by the GC
            nodes.clear()


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


def lora_linear(x: Tensor, w: Tensor, b: Tensor, a: Tensor, scale: float) -> Tensor:
    """x @ W + scale * (x @ B) @ A: a base projection plus a rank-r adapter, as one op.

    W is (d, k), B is (d, r) and A is (r, k).
    """
    d, k = w.data.shape
    r = a.data.shape[0]
    if x.data.shape[1] != d or b.data.shape != (d, r) or a.data.shape != (r, k):
        raise ShapeError(f"lora_linear shapes disagree: x {x.data.shape}, W {w.data.shape}, "
                         f"B {b.data.shape}, A {a.data.shape}")
    xb = x.data @ b.data
    out = x.data @ w.data
    adapter = xb @ a.data
    if scale != 1.0:  # multiplying by 1.0 changes no bit
        adapter *= scale
    out += adapter

    def backward(g, grad_out):
        gs = grad_out if scale == 1.0 else grad_out * scale
        if a.requires_grad:
            g.accumulate(a, xb.T @ gs)
        if b.requires_grad or x.requires_grad:
            gsa = gs @ a.data.T
            if b.requires_grad:
                g.accumulate(b, x.data.T @ gsa)
            if x.requires_grad:
                g.accumulate(x, gsa @ b.data.T + grad_out @ w.data.T)
        if w.requires_grad:
            g.accumulate(w, x.data.T @ grad_out)

    return _emit(out, backward, x, w, b, a)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, n) row broadcast over a's rows."""
    if a.data.shape != b.data.shape and not (
        b.data.shape == (1, a.data.shape[1])
    ):
        raise ShapeError(f"add shapes disagree: {a.data.shape} + {b.data.shape}")
    row_broadcast = b.data.shape != a.data.shape

    def backward(g, grad_out):
        g.accumulate(a, grad_out.copy())
        if row_broadcast:
            g.accumulate(b, grad_out.sum(axis=0, keepdims=True))
        else:
            g.accumulate(b, grad_out.copy())

    return _emit(a.data + b.data, backward, a, b)


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g, grad_out):
        g.accumulate(a, grad_out * c)

    return _emit(a.data * c, backward, a)


def relu(a: Tensor) -> Tensor:
    """max(a, 0) elementwise; the backward passes the gradient where the output is positive."""
    out = np.maximum(a.data, 0.0)

    def backward(g, grad_out):
        g.accumulate(a, grad_out * (out > 0))

    return _emit(out, backward, a)


def transpose(a: Tensor) -> Tensor:
    def backward(g, grad_out):
        g.accumulate(a, grad_out.T.copy())

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
            g.accumulate(p, grad_out[:, lo:hi].copy())

    return _emit(np.concatenate([p.data for p in parts], axis=1), backward, *parts)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    heights = [p.data.shape[0] for p in parts]
    offsets = np.cumsum([0] + heights)

    def backward(g, grad_out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            g.accumulate(p, grad_out[lo:hi, :].copy())

    return _emit(np.concatenate([p.data for p in parts], axis=0), backward, *parts)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise DataError(f"row index out of range for table of {table.data.shape[0]} rows")

    def backward(g, grad_out):  # taped only when table requires grad
        full = np.zeros_like(table.data)
        np.add.at(full, idx, grad_out)
        g.accumulate(table, full)

    return _emit(np.take(table.data, idx, axis=0), backward, table)


def softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def backward(g, grad_out):
        dot = (grad_out * s).sum(axis=1, keepdims=True)
        g.accumulate(x, s * (grad_out - dot))

    return _emit(s, backward, x)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1, keepdims=True), bit for bit, without the Python-level wrapper."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def _layer_norm(s: np.ndarray, inputs: tuple, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """The layer-norm kernel on rows s, a temporary it normalizes in place; its
    input gradient goes to every tensor in `inputs`."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps}")
    d = s.shape[1]
    if gamma.data.shape != (1, d) or beta.data.shape != (1, d):
        raise ShapeError(
            f"layer_norm affine shapes must be (1, {d}), got {gamma.data.shape} and {beta.data.shape}"
        )
    xhat = np.subtract(s, _row_mean(s), out=s)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + eps)
    xhat *= inv
    out = xhat * gamma.data  # not in place: on the tape the backward reads xhat
    out += beta.data

    def backward(g, grad_out):
        if gamma.requires_grad:
            g.accumulate(gamma, np.add.reduce(grad_out * xhat, axis=0, keepdims=True))
        if beta.requires_grad:
            g.accumulate(beta, np.add.reduce(grad_out, axis=0, keepdims=True))
        needs = [t for t in inputs if t.requires_grad]
        if needs:
            dxhat = grad_out * gamma.data
            buf = dxhat * xhat
            m2 = _row_mean(buf)
            dxhat -= _row_mean(dxhat)
            dxhat -= np.multiply(xhat, m2, out=buf)
            dxhat *= inv
            for t in needs[1:]:
                g.accumulate(t, dxhat.copy())
            g.accumulate(needs[0], dxhat)

    return _emit(out, backward, *inputs, gamma, beta)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization, then affine by gamma/beta rows of width d."""
    return _layer_norm(x.data.copy(), (x,), gamma, beta, eps)


def add_layer_norm(x: Tensor, y: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """layer_norm(add(x, y), gamma, beta, eps) as one op: a residual sum and its
    normalization. x and y have one shape, and both receive the sum's gradient."""
    if x.data.shape != y.data.shape:
        raise ShapeError(f"add_layer_norm shapes disagree: {x.data.shape} + {y.data.shape}")
    return _layer_norm(x.data + y.data, (x, y), gamma, beta, eps)


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

    k and v hold B sequences of T rows each, stacked as (B*T, d); key_mask
    is (B, T), true at real tokens. q holds either T queries per sequence,
    (B*T, d), or one, (B, d). Every head attends within its own sequence
    only, and a masked key gets a MASK_BIAS pre-softmax bias, so its weight
    is exactly zero. The output has q's shape.
    """
    mask = np.asarray(key_mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"attention key_mask must be (B, T), got shape {mask.shape}")
    n_seq, seq_len = mask.shape
    n, d = n_seq * seq_len, q.data.shape[1]
    if q.data.shape not in ((n, d), (n_seq, d)) or k.data.shape != (n, d) or v.data.shape != (n, d):
        raise ShapeError(
            f"attention q must be ({n}, d) or ({n_seq}, d), and k, v ({n}, d), for a {mask.shape} "
            f"mask, got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention width {d} does not split into {n_heads} heads")
    dh = d // n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    def split(x):  # (B*rows, d) -> (B, H, rows, dh)
        return x.reshape(n_seq, -1, n_heads, dh).transpose(0, 2, 1, 3)

    def matmul_merged(a, b, shape):  # a @ b, (B, H, rows, dh), written straight into (B*rows, d)
        out = np.empty(shape)
        np.matmul(a, b, out=split(out))
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the softmax runs in place in the scores buffer, so no other
    # (B, H, rows, T) temporary is allocated
    p = qh @ kh.transpose(0, 1, 3, 2)
    p *= inv_sqrt_dh
    if not mask.all():  # an all-zero bias would only turn -0.0 scores into 0.0, which exp maps alike
        p += np.where(mask, 0.0, MASK_BIAS)[:, None, None, :]
    p -= np.fmax.reduce(p, axis=-1, keepdims=True)  # a row with a NaN ends all-NaN either way
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)

    def backward(g, grad_out):
        dctx = split(grad_out)
        dscores = dctx @ vh.transpose(0, 1, 3, 2)  # dp, turned into dscores in place
        dscores -= np.add.reduce(dscores * p, axis=-1, keepdims=True)
        dscores *= p
        dscores *= inv_sqrt_dh
        if q.requires_grad:
            g.accumulate(q, matmul_merged(dscores, kh, q.data.shape))
        if k.requires_grad:
            g.accumulate(k, matmul_merged(dscores.transpose(0, 1, 3, 2), qh, k.data.shape))
        if v.requires_grad:
            g.accumulate(v, matmul_merged(p.transpose(0, 1, 3, 2), dctx, v.data.shape))

    return _emit(matmul_merged(p, vh, q.data.shape), backward, q, k, v)


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
