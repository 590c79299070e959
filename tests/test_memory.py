"""Peak traced memory of the steps that set a run's peak: the parameter init,
one training step and one forward-only eval batch. Each bound holds a step to
what it must keep (its output, its tape), not to its temporaries."""

import tracemalloc
import weakref

import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora import rng
from fedlora.autodiff import Graph, Tensor
from fedlora.lora import LoraConfig, attach_adapters
from fedlora.model import CLS_ID, N_RESERVED, ModelConfig, forward, init_model


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _peak_of(fn):
    """(fn(), the most bytes live during fn above those live when it started)."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn()
    return out, tracemalloc.get_traced_memory()[1] - base


def _ids(cfg: ModelConfig, n_seq: int, seed: int) -> np.ndarray:
    """n_seq rows of max_seq_len real tokens, CLS first."""
    ids = rng.uniform_array(seed, n_seq * cfg.max_seq_len, N_RESERVED, cfg.vocab_size)
    ids = ids.astype(np.intp).reshape(n_seq, cfg.max_seq_len)
    ids[:, 0] = CLS_ID
    return ids


def test_uniform_array_peaks_at_twice_its_output(traced):
    out, peak = _peak_of(lambda: rng.uniform_array(7, 256000))
    assert peak <= 2 * out.nbytes + 64 * 1024


def test_init_model_peaks_at_twice_its_parameters(traced):
    model, peak = _peak_of(lambda: init_model(ModelConfig()))
    assert peak <= 2 * sum(p.data.nbytes for p in model.parameters())


def test_training_step_peaks_near_what_its_forward_leaves_live(traced):
    cfg = ModelConfig()
    am = attach_adapters(init_model(cfg), LoraConfig(rank=4, targets=("q", "v"), seed=1))
    ids, labels = _ids(cfg, 16, seed=3), np.arange(16) % 2
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    with Graph() as g:
        loss = ad.cross_entropy(forward(am, ids), labels)
    after_forward = tracemalloc.get_traced_memory()[0] - base
    g.backward(loss)
    peak = tracemalloc.get_traced_memory()[1] - base
    assert peak <= 1.3 * after_forward


def test_backward_frees_each_node_once_it_has_run():
    x = Tensor(np.array([[0.5, -1.0, 2.0]]), requires_grad=True)
    seen = []

    class Probe(Graph):
        def accumulate(self, t, delta):
            if t is x:  # only the first node's backward reaches x
                seen.append(saved() is None)
            super().accumulate(t, delta)

    with Probe() as g:
        h = ad.relu(ad.scale(x, 3.0))
        loss = ad.cross_entropy(h, [2])  # the last node, which saves h
    saved = weakref.ref(h.data)
    del h
    g.backward(loss)
    assert seen == [True]
    assert x.grad is not None


def test_forward_only_eval_batch_peak(traced):
    cfg = ModelConfig()
    am = attach_adapters(init_model(cfg), LoraConfig(rank=4, targets=("q", "v"), seed=1))
    ids = _ids(cfg, 1024 // cfg.max_seq_len, seed=5)
    _, peak = _peak_of(lambda: forward(am, ids))
    assert peak <= 1.9e6
