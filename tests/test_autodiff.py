import math
import weakref

import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora.autodiff import Graph, Tensor
from fedlora.errors import ConfigError, DataError, ShapeError, StateError


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_scalar_product_rule():
    a = Tensor([[2.0]], requires_grad=True)
    b = Tensor([[3.0]], requires_grad=True)
    with Graph() as g:
        c = ad.matmul(a, b)
    assert c.data[0, 0] == 6.0
    g.backward(c)
    assert a.grad[0, 0] == 3.0
    assert b.grad[0, 0] == 2.0


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_matches_finite_differences():
    gen = np.random.default_rng(11)
    a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(gen.normal(size=(4, 2)), requires_grad=True)

    def f():
        prod = ad.matmul(a, b)
        # reduce to a scalar through a fixed linear functional
        left = Tensor(np.ones((1, 3)))
        right = Tensor(np.ones((2, 1)))
        return ad.matmul(ad.matmul(left, prod), right)

    assert ad.grad_check(f, [a, b], eps=1e-5) < 1e-6


def test_softmax_symmetry_and_stability():
    out = ad.softmax_rows(Tensor([[0.0, 0.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]])
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] == pytest.approx(1.0)
    assert out.data[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_hand_value():
    out = ad.softmax_rows(Tensor([[math.log(2.0), 0.0]]))
    assert np.allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_softmax_rows_sum_to_one():
    gen = np.random.default_rng(3)
    for _ in range(50):
        x = Tensor(gen.normal(scale=100.0, size=(4, 7)))
        out = ad.softmax_rows(x).data
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_layer_norm_constant_row_maps_to_beta():
    x = Tensor([[5.0, 5.0, 5.0]])
    gamma = Tensor(np.ones((1, 3)))
    beta = Tensor([[7.0, 7.0, 7.0]])
    out = ad.layer_norm(x, gamma, beta, eps=1e-5)
    assert np.allclose(out.data, 7.0)


def test_layer_norm_already_normalized():
    out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones((1, 2))),
                        Tensor(np.zeros((1, 2))), eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_rejects_nonpositive_eps():
    x = Tensor(np.ones((1, 2)))
    gamma, beta = Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 2)))
    with pytest.raises(ConfigError):
        ad.layer_norm(x, gamma, beta, eps=0.0)


def test_layer_norm_gradient_matches_finite_differences():
    gen = np.random.default_rng(5)
    x = Tensor(gen.normal(size=(3, 6)), requires_grad=True)
    gamma = Tensor(gen.normal(size=(1, 6)), requires_grad=True)
    beta = Tensor(gen.normal(size=(1, 6)), requires_grad=True)
    weight = Tensor(gen.normal(size=(6, 1)))
    ones = Tensor(np.ones((1, 3)))

    def f():
        y = ad.layer_norm(x, gamma, beta, eps=1e-5)
        return ad.matmul(ones, ad.matmul(y, weight))

    assert ad.grad_check(f, [x, gamma, beta], eps=1e-5) < 1e-5


def test_cross_entropy_uniform_logits():
    loss = ad.cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert loss.data[0, 0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_cross_entropy_confident_correct():
    loss = ad.cross_entropy(Tensor([[30.0, -30.0]]), [0])
    assert 0.0 <= loss.data[0, 0] < 1e-12


def test_cross_entropy_out_of_range_label_reports_index():
    with pytest.raises(DataError, match="record 1"):
        ad.cross_entropy(Tensor(np.zeros((3, 2))), [0, 2, 1])


def test_cross_entropy_backward_is_softmax_minus_onehot():
    gen = np.random.default_rng(7)
    logits = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
    labels = [0, 2, 1, 1]
    with Graph() as g:
        loss = ad.cross_entropy(logits, labels)
    g.backward(loss)
    probs = ad.softmax_rows(Tensor(logits.data.copy())).data
    onehot = np.zeros((4, 3))
    onehot[np.arange(4), labels] = 1.0
    assert np.allclose(logits.grad, (probs - onehot) / 4.0, atol=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    gen = np.random.default_rng(9)
    logits = Tensor(gen.normal(size=(5, 3)), requires_grad=True)
    labels = [0, 1, 2, 0, 1]

    def f():
        return ad.cross_entropy(logits, labels)

    assert ad.grad_check(f, [logits], eps=1e-5) < 1e-6


def test_cross_entropy_nonnegative_and_finite_for_large_logits():
    gen = np.random.default_rng(13)
    for _ in range(20):
        logits = Tensor(gen.uniform(-1e3, 1e3, size=(3, 2)))
        loss = ad.cross_entropy(logits, [0, 1, 0])
        assert np.isfinite(loss.data[0, 0])
        assert loss.data[0, 0] >= 0.0


def test_backward_identity_chain():
    leaf = Tensor([[4.0]], requires_grad=True)
    with Graph() as g:
        loss = ad.scale(leaf, 1.0)
    g.backward(loss)
    assert leaf.grad[0, 0] == 1.0


def test_backward_skips_disconnected_leaf():
    used = Tensor([[2.0]], requires_grad=True)
    unused = Tensor([[5.0]], requires_grad=True)
    with Graph() as g:
        loss = ad.scale(used, 3.0)
        ad.scale(unused, 2.0)  # recorded but not feeding the loss
    g.backward(loss)
    assert used.grad[0, 0] == 3.0
    assert unused.grad is None


def test_backward_before_forward_rejected():
    with pytest.raises(StateError):
        Graph().backward(Tensor([[1.0]]))


def test_backward_twice_rejected():
    leaf = Tensor([[1.0]], requires_grad=True)
    with Graph() as g:
        loss = ad.scale(leaf, 2.0)
    g.backward(loss)
    with pytest.raises(StateError):
        g.backward(loss)


def _non_scalar_loss():
    with Graph() as g:
        loss = ad.scale(Tensor(np.ones((2, 2)), requires_grad=True), 2.0)
    return g, loss


def _loss_from_another_graph():
    w = Tensor([[1.0]], requires_grad=True)
    with Graph():
        loss = ad.scale(w, 2.0)
    with Graph() as g:
        ad.scale(w, 3.0)
    return g, loss


def _frozen_only_loss():
    with Graph() as g:
        ad.scale(Tensor([[1.0]], requires_grad=True), 2.0)  # the tape is not empty
        loss = ad.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert not loss.requires_grad
    return g, loss


@pytest.mark.parametrize("make, error", [(_non_scalar_loss, ShapeError),
                                         (_loss_from_another_graph, StateError),
                                         (_frozen_only_loss, StateError)],
                         ids=["non_scalar", "other_graph", "frozen_only"])
def test_backward_rejects_bad_loss(make, error):
    g, loss = make()
    with pytest.raises(error):
        g.backward(loss)


@pytest.mark.parametrize("call, error", [
    (lambda: Tensor([1.0, 2.0]), ShapeError),
    (lambda: ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2)))), ShapeError),
    (lambda: ad.gather_rows(Tensor(np.zeros((4, 2))), [0, 4]), DataError),
    (lambda: ad.layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones((1, 2))), Tensor(np.zeros((1, 3)))),
     ShapeError),
    (lambda: ad.cross_entropy(Tensor(np.zeros((3, 2))), [0, 1]), ShapeError),
], ids=["tensor_1d", "add_shapes", "gather_out_of_range", "layer_norm_affine", "cross_entropy_labels"])
def test_bad_op_input_raises(call, error):
    with pytest.raises(error):
        call()


def test_frozen_leaf_receives_no_grad():
    frozen = Tensor([[2.0]], requires_grad=False)
    free = Tensor([[3.0]], requires_grad=True)
    with Graph() as g:
        loss = ad.matmul(frozen, free)
    g.backward(loss)
    assert frozen.grad is None
    assert free.grad is not None


def test_backward_frees_the_tape_without_gc():
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    with Graph() as g:
        hidden = ad.relu(ad.matmul(Tensor(np.ones((1, 3))), w))
        loss = ad.matmul(hidden, Tensor(np.ones((3, 1))))
    activation = weakref.ref(hidden.data)
    del hidden
    g.backward(loss)
    # the graph itself is still referenced here; only its tape must be gone
    assert activation() is None
    assert np.array_equal(w.grad, np.ones((3, 3)))


def test_frozen_inputs_get_no_gradient_work():
    # a frozen base weight and a frozen table: no delta is even computed for them
    frozen_w = Tensor(np.ones((3, 2)))
    table = Tensor(np.ones((5, 3)))
    gamma, beta = Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
    head = Tensor(np.ones((2, 1)), requires_grad=True)
    with Graph() as g:
        x = ad.layer_norm(ad.gather_rows(table, [0, 3]), gamma, beta)
        loss = ad.matmul(Tensor(np.ones((1, 2))), ad.matmul(ad.matmul(x, frozen_w), head))
    seen = []
    accumulate = g.accumulate
    g.accumulate = lambda t, delta: (seen.append(t), accumulate(t, delta))
    g.backward(loss)
    assert not any(t is frozen_w or t is table or t is gamma or t is beta for t in seen)
    assert head.grad is not None


def test_only_ops_that_need_a_gradient_are_taped():
    table, frozen_w = Tensor(np.ones((5, 3))), Tensor(np.ones((3, 3)))
    adapter = Tensor(np.ones((3, 3)), requires_grad=True)
    with Graph() as g:
        recorded, record = [], g.record
        g.record = lambda out, fn: (recorded.append(out), record(out, fn))
        x = ad.gather_rows(table, [0, 3])
        base = ad.matmul(x, frozen_w)
        out = ad.add(base, ad.matmul(x, adapter))
        loss = ad.matmul(Tensor(np.ones((1, 2))), ad.matmul(out, Tensor(np.ones((3, 1)))))
    assert not x.requires_grad and not base.requires_grad
    assert out.requires_grad and loss.requires_grad
    assert len(recorded) == 4 and all(t.requires_grad for t in recorded)
    g.backward(loss)
    assert adapter.grad is not None and base.grad is None and x.grad is None


def _attention_by_parts(q, k, v, mask, n_heads):
    """Per sequence and head, out of the 2-D ops: the path the fused op replaced."""
    n_seq, seq_len = mask.shape
    dh = q.shape[1] // n_heads
    rows = []
    for b in range(n_seq):
        lo_r, hi_r = b * seq_len, (b + 1) * seq_len
        qb, kb, vb = (ad.slice_rows(t, lo_r, hi_r) for t in (q, k, v))
        key_bias = Tensor(np.where(mask[b], 0.0, ad.MASK_BIAS).reshape(1, -1))
        heads = []
        for h in range(n_heads):
            lo, hi = h * dh, (h + 1) * dh
            scores = ad.scale(ad.matmul(ad.slice_cols(qb, lo, hi),
                                        ad.transpose(ad.slice_cols(kb, lo, hi))), 1.0 / math.sqrt(dh))
            attn = ad.softmax_rows(ad.add(scores, key_bias))
            heads.append(ad.matmul(attn, ad.slice_cols(vb, lo, hi)))
        rows.append(ad.concat_cols(heads))
    return ad.concat_rows(rows)


def test_attention_matches_per_sequence_ops():
    gen = np.random.default_rng(4)
    q, k, v = (Tensor(gen.normal(size=(3 * 5, 6)), requires_grad=True) for _ in range(3))
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 1, 1, 0]], dtype=bool)
    weights = Tensor(gen.normal(size=(6, 1)))
    ones = Tensor(np.ones((1, 15)))
    results = []
    for op in (ad.attention, _attention_by_parts):
        ad.zero_grads([q, k, v])
        with Graph() as g:
            out = op(q, k, v, mask, 3)
            loss = ad.matmul(ones, ad.matmul(out, weights))
        g.backward(loss)
        results.append([out.data] + [t.grad.copy() for t in (q, k, v)])
    for fused, parts in zip(*results):
        assert np.abs(fused - parts).max() <= 1e-12


def attention_weights(q, k, key_mask, n_heads):
    """Per-head attention weights, (B, H, T, T), read off `ad.attention`.

    Each head's columns of v hold a one-hot row per key, so every output row
    is exactly that query's weights over its sequence's keys (needs T <= d/H).
    """
    mask = np.asarray(key_mask, dtype=bool)
    n_seq, seq_len = mask.shape
    dh = q.shape[1] // n_heads
    v = np.zeros((n_seq, seq_len, n_heads, dh))
    v[:, np.arange(seq_len), :, np.arange(seq_len)] = 1.0
    out = ad.attention(q, k, Tensor(v.reshape(q.shape)), mask, n_heads).data
    return out.reshape(n_seq, seq_len, n_heads, dh).transpose(0, 2, 1, 3)[..., :seq_len]


def test_attention_weights_and_shape_checks():
    gen = np.random.default_rng(8)
    q = Tensor(gen.normal(size=(4, 4)))
    mask = np.array([[1, 0], [1, 1]], dtype=bool)
    weights = attention_weights(q, q, mask, 2)
    assert weights.shape == (2, 2, 2, 2)
    # sequence 0 masks its second key: that key gets exactly zero weight
    assert np.all(weights[0, :, :, 1] == 0.0) and np.all(weights[0, :, :, 0] == 1.0)
    assert np.all(weights[1] > 0.0)
    assert np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-12
    with pytest.raises(ShapeError):
        ad.attention(q, q, q, np.ones((3, 2), dtype=bool), 2)
    with pytest.raises(ShapeError):
        ad.attention(q, q, q, mask, 3)
    with pytest.raises(ShapeError, match="key_mask must be"):
        ad.attention(q, q, q, np.ones(4, dtype=bool), 2)


def test_grad_accumulates_until_zeroed():
    leaf = Tensor([[1.0]], requires_grad=True)
    for expected in (2.0, 4.0):
        with Graph() as g:
            loss = ad.scale(leaf, 2.0)
        g.backward(loss)
        assert leaf.grad[0, 0] == expected
    ad.zero_grads([leaf])
    assert leaf.grad is None


def test_grad_check_square():
    x = Tensor([[3.0]], requires_grad=True)

    def f():
        return ad.matmul(x, x)

    assert ad.grad_check(f, [x], eps=1e-5) < 1e-9


@pytest.mark.parametrize("op", ["matmul", "add", "add_broadcast", "scale", "relu",
                                "transpose", "slice", "concat", "gather",
                                "softmax", "layer_norm", "attention", "cross_entropy"])
def test_every_op_gradient_over_seeds(op):
    # 100 seeded trials per op, per the gradient-correctness contract
    for seed in range(100):
        gen = np.random.default_rng(seed)
        reduce_w = Tensor(gen.normal(size=(4, 1)))
        ones = Tensor(np.ones((1, 3)))

        def to_scalar(t):
            return ad.matmul(ad.matmul(ones, t), reduce_w)

        if op == "matmul":
            a = Tensor(gen.normal(size=(3, 5)), requires_grad=True)
            b = Tensor(gen.normal(size=(5, 4)), requires_grad=True)
            params, f = [a, b], lambda: to_scalar(ad.matmul(a, b))
        elif op == "add":
            a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            params, f = [a, b], lambda: to_scalar(ad.add(a, b))
        elif op == "add_broadcast":
            a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
            params, f = [a, b], lambda: to_scalar(ad.add(a, b))
        elif op == "scale":
            a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            params, f = [a], lambda: to_scalar(ad.scale(a, -1.7))
        elif op == "relu":
            # keep entries away from the kink at 0
            vals = gen.normal(size=(3, 4))
            vals += np.sign(vals) * 0.5
            a = Tensor(vals, requires_grad=True)
            params, f = [a], lambda: to_scalar(ad.relu(a))
        elif op == "transpose":
            a = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
            params, f = [a], lambda: to_scalar(ad.transpose(a))
        elif op == "slice":
            a = Tensor(gen.normal(size=(5, 6)), requires_grad=True)
            params = [a]
            f = lambda: to_scalar(ad.slice_cols(ad.slice_rows(a, 1, 4), 2, 6))
        elif op == "concat":
            a = Tensor(gen.normal(size=(3, 2)), requires_grad=True)
            b = Tensor(gen.normal(size=(3, 2)), requires_grad=True)
            params, f = [a, b], lambda: to_scalar(ad.concat_cols([a, b]))
        elif op == "gather":
            a = Tensor(gen.normal(size=(6, 4)), requires_grad=True)
            ids = gen.integers(0, 6, size=3)
            params, f = [a], lambda: to_scalar(ad.gather_rows(a, ids))
        elif op == "softmax":
            a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            params, f = [a], lambda: to_scalar(ad.softmax_rows(a))
        elif op == "layer_norm":
            a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
            gamma = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
            beta = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
            params = [a, gamma, beta]
            f = lambda: to_scalar(ad.layer_norm(a, gamma, beta, eps=1e-5))
        elif op == "attention":
            # two packed sequences of three keys, width 4 split into two heads
            q, k, v = (Tensor(gen.normal(size=(6, 4)), requires_grad=True) for _ in range(3))
            mask = gen.random((2, 3)) < 0.5
            mask[:, 0] = True  # every sequence keeps a real key
            mask[1, 2] = False  # and at least one key is masked
            rows = Tensor(np.ones((1, 6)))
            params = [q, k, v]
            f = lambda: ad.matmul(ad.matmul(rows, ad.attention(q, k, v, mask, 2)), reduce_w)
        else:  # cross_entropy
            a = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
            labels = gen.integers(0, 3, size=4)
            params, f = [a], lambda: ad.cross_entropy(a, labels)
        assert ad.grad_check(f, params, eps=1e-5) < 1e-4
