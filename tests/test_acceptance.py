"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
so the whole gate can be read off a plain pytest run.
"""

import os
import time

import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora import rng
from fedlora.autodiff import Tensor
from fedlora.data import PartitionSpec, load_corpus, partition_clients, synth_corpus
from fedlora.federation import FedConfig, fedavg, run_centralized, run_federated
from fedlora.lora import (LoraConfig, attach_adapters, merge_adapters,
                          trainable_param_count)
from fedlora.model import ModelConfig, forward, init_model

REAL_CORPUS_PATHS = ("data/dreaddit.csv", "data/corpus.csv")
REAL_CORPUS_EXPECTED_ROWS = 3553


# one line per criterion; echoed in the terminal summary by conftest.py
GATE_LINES: list = []


def report(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    GATE_LINES.append(line)
    print(line)
    assert ok, f"{criterion}: {detail}"


def tiny_cfg(**overrides):
    defaults = dict(vocab_size=64, d_model=8, n_heads=2, n_layers=1,
                    ff_dim=16, max_seq_len=8, n_classes=2, seed=5)
    defaults.update(overrides)
    return ModelConfig(**defaults)


# 1. gradient correctness ----------------------------------------------------

def _op_case(op, gen):
    reduce_w = Tensor(gen.normal(size=(4, 1)))
    ones = Tensor(np.ones((1, 3)))

    def to_scalar(t):
        return ad.matmul(ad.matmul(ones, t), reduce_w)

    if op == "matmul":
        a = Tensor(gen.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(gen.normal(size=(5, 4)), requires_grad=True)
        return [a, b], lambda: to_scalar(ad.matmul(a, b))
    if op == "add":
        a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
        return [a, b], lambda: to_scalar(ad.add(a, b))
    if op == "scale":
        a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        return [a], lambda: to_scalar(ad.scale(a, 2.3))
    if op == "relu":
        vals = gen.normal(size=(3, 4))
        vals += np.sign(vals) * 0.5  # stay clear of the kink
        a = Tensor(vals, requires_grad=True)
        return [a], lambda: to_scalar(ad.relu(a))
    if op == "transpose":
        a = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
        return [a], lambda: to_scalar(ad.transpose(a))
    if op == "slice":
        a = Tensor(gen.normal(size=(5, 6)), requires_grad=True)
        return [a], lambda: to_scalar(ad.slice_cols(ad.slice_rows(a, 1, 4), 2, 6))
    if op == "concat":
        a = Tensor(gen.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(gen.normal(size=(3, 2)), requires_grad=True)
        return [a, b], lambda: to_scalar(ad.concat_cols([a, b]))
    if op == "gather":
        a = Tensor(gen.normal(size=(6, 4)), requires_grad=True)
        ids = gen.integers(0, 6, size=3)
        return [a], lambda: to_scalar(ad.gather_rows(a, ids))
    if op == "softmax":
        a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        return [a], lambda: to_scalar(ad.softmax_rows(a))
    if op == "layer_norm":
        a = Tensor(gen.normal(size=(3, 4)), requires_grad=True)
        gamma = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
        beta = Tensor(gen.normal(size=(1, 4)), requires_grad=True)
        return [a, gamma, beta], lambda: to_scalar(ad.layer_norm(a, gamma, beta, eps=1e-5))
    # cross_entropy
    a = Tensor(gen.normal(size=(4, 3)), requires_grad=True)
    labels = gen.integers(0, 3, size=4)
    return [a], lambda: ad.cross_entropy(a, labels)


def test_criterion_1_gradients():
    t0 = time.perf_counter()
    ops = ["matmul", "add", "scale", "relu", "transpose", "slice",
           "concat", "gather", "softmax", "layer_norm", "cross_entropy"]
    worst = 0.0
    for op in ops:
        for seed in range(100):
            params, f = _op_case(op, np.random.default_rng(seed))
            worst = max(worst, ad.grad_check(f, params, eps=1e-5))

    # whole-pipeline loss: adapted transformer + cross entropy on a real batch
    base = init_model(tiny_cfg())
    am = attach_adapters(base, LoraConfig(rank=2, seed=3, targets=("q", "v")))
    gen = np.random.default_rng(0)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.2
    ids = [[2, 5, 9, 13, 0, 0, 0, 0], [2, 7, 0, 0, 0, 0, 0, 0]]

    def full_loss():
        return ad.cross_entropy(forward(am, ids), [0, 1])

    worst = max(worst, ad.grad_check(full_loss, am.trainable_parameters(), eps=1e-5))
    elapsed = time.perf_counter() - t0
    report("criterion 1 (gradient checks)",
           worst < 1e-4 and elapsed < 120,
           f"max rel err {worst:.2e} over {len(ops)}x100 op trials + full loss, {elapsed:.1f}s")


def test_full_loss_gradients_through_trainable_layer_inputs():
    # criterion 1's one-layer model feeds its only (CLS-only) layer from the
    # frozen embeddings; with two layers, every adapted op of the last layer
    # takes a trainable x, so its dx reaches the first layer's adapters
    base = init_model(tiny_cfg(n_layers=2))
    am = attach_adapters(base, LoraConfig(rank=2, seed=3,
                                          targets=("q", "k", "v", "o", "ff1", "ff2")))
    gen = np.random.default_rng(4)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.3
    ids = [[2, 5, 9, 13, 0, 0, 0, 0], [2, 7, 0, 0, 0, 0, 0, 0], [2, 30, 41, 8, 17, 60, 3, 0]]

    def full_loss():
        return ad.cross_entropy(forward(am, ids), [0, 1, 1])

    assert ad.grad_check(full_loss, am.trainable_parameters(), eps=1e-5) < 1e-4


# 2. single-client round equals centralized training -------------------------

def test_criterion_2_centralized_equivalence():
    records = synth_corpus(120, seed=17)
    model_cfg = tiny_cfg(vocab_size=200, max_seq_len=12)
    lora_cfg = LoraConfig(rank=2, seed=5, targets=("q", "v"))
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_epochs=2, eta=0.3,
                        batch_size=16, seed=9)
    federated = run_federated(model_cfg, lora_cfg, fed_cfg, records,
                              PartitionSpec(n_clients=1, strategy="iid", seed=9))
    central = run_centralized(model_cfg, lora_cfg, fed_cfg, records)
    diff = np.abs(federated.theta - central.theta).max()
    report("criterion 2 (centralized equivalence)", diff < 1e-9,
           f"max |theta_fed - theta_central| = {diff:.2e} for K=1, R=1")


# 3. low-rank adapter invariants ---------------------------------------------

def test_criterion_3_lora_invariants():
    base = init_model(tiny_cfg(vocab_size=200, max_seq_len=12))
    am = attach_adapters(base, LoraConfig(rank=2, seed=3, targets=("q", "v")))
    gen = np.random.default_rng(1)
    ids = []
    for _ in range(8):
        length = int(gen.integers(2, 13))
        row = [2] + list(gen.integers(3, 200, size=length - 1))
        ids.append(row + [0] * (12 - length))

    zero_init_exact = np.array_equal(forward(base, ids).data, forward(am, ids).data)

    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape) * 0.5
    merged = merge_adapters(am)
    merge_err = np.abs(forward(am, ids).data - forward(merged, ids).data).max()

    # the frozen base must be bit-identical after a real multi-round run
    records = synth_corpus(90, seed=8)
    state = run_federated(base.cfg, LoraConfig(rank=2, seed=3, targets=("q", "v")),
                          FedConfig(n_clients=3, rounds=3, local_epochs=2, eta=0.3,
                                    batch_size=8, seed=4),
                          records, PartitionSpec(n_clients=3, strategy="iid", seed=6))
    base_frozen = all(
        np.array_equal(p.data, q.data)
        for p, q in zip(init_model(base.cfg).parameters(), state.model.base.parameters()))

    # parameter arithmetic at reference scale: rank 8 on a 768x768 matrix
    adapter_params = 8 * (768 + 768)
    full_params = 768 * 768
    counts_ok = adapter_params == 12_288 and full_params == 589_824

    ok = zero_init_exact and merge_err < 1e-6 and base_frozen and counts_ok
    report("criterion 3 (adapter invariants)", ok,
           f"zero-init exact={zero_init_exact}, merge err {merge_err:.2e}, "
           f"base frozen={base_frozen}, 12288 vs 589824={counts_ok}")


# 4. aggregation against brute force -----------------------------------------

def test_criterion_4_fedavg_oracle():
    gen = np.random.default_rng(0)
    worst = 0.0
    for trial in range(200):
        k = int(gen.integers(1, 7))
        dim = int(gen.integers(1, 200))
        thetas = [gen.normal(scale=gen.uniform(0.1, 100.0), size=dim) for _ in range(k)]
        brute = np.array([sum(t[i] for t in thetas) / k for i in range(dim)])
        worst = max(worst, float(np.abs(fedavg(thetas) - brute).max()))
    report("criterion 4 (aggregation oracle)", worst < 1e-12,
           f"max |fedavg - brute force mean| = {worst:.2e} over 200 trials")


# 5. end-to-end synthetic benchmark ------------------------------------------

def test_criterion_5_end_to_end():
    t0 = time.perf_counter()
    records = synth_corpus(2000, seed=3)
    state = run_federated(
        ModelConfig(seed=0),
        LoraConfig(rank=4, seed=1, targets=("q", "v")),
        FedConfig(n_clients=3, rounds=5, local_epochs=2, eta=0.2, batch_size=16, seed=2),
        records, PartitionSpec(n_clients=3, strategy="iid", seed=4))
    elapsed = time.perf_counter() - t0
    last = state.history[-1]
    ok = last.eval_accuracy >= 0.90 and last.eval_f1 >= 0.90 and elapsed < 300
    report("criterion 5 (end-to-end benchmark)", ok,
           f"accuracy {last.eval_accuracy:.4f}, F1 {last.eval_f1:.4f}, {elapsed:.1f}s "
           f"(need >= 0.90 within 300s)")


# 6. client-count / epoch-budget trend under label skew ----------------------

def test_criterion_6_ablation_trend():
    t0 = time.perf_counter()
    cells = [(1, 3, 10), (1, 10, 3), (3, 10, 3)]
    more_clients_wins = middle_wins = 0
    details = []
    for base in range(1, 6):
        records = synth_corpus(400, seed=rng.derive(base, "data"))
        f1 = {}
        for k, e, r in cells:
            state = run_federated(
                ModelConfig(seed=rng.derive(base, "model")),
                LoraConfig(rank=4, seed=rng.derive(base, "lora"), targets=("q", "v")),
                FedConfig(n_clients=k, rounds=r, local_epochs=e, eta=0.2,
                          batch_size=16, seed=rng.derive(base, "fed")),
                records,
                PartitionSpec(n_clients=3, strategy="label_skew", alpha=0.5,
                              seed=rng.derive(base, "partition")))
            f1[(k, e, r)] = state.history[-1].eval_f1
        a, b, c = f1[(1, 3, 10)], f1[(1, 10, 3)], f1[(3, 10, 3)]
        more_clients_wins += c > b
        middle_wins += b > a
        details.append(f"seed {base}: {a:.3f}/{b:.3f}/{c:.3f}")
    elapsed = time.perf_counter() - t0
    ok = more_clients_wins >= 4 and middle_wins >= 4 and elapsed < 1800
    report("criterion 6 (skewed ablation trend)", ok,
           f"F1(3,10,3)>F1(1,10,3) in {more_clients_wins}/5, "
           f"F1(1,10,3)>F1(1,3,10) in {middle_wins}/5, {elapsed:.1f}s; " + "; ".join(details))


# 7. communication accounting ------------------------------------------------

def test_criterion_7_comm_accounting():
    records = synth_corpus(90, seed=8)
    model_cfg = tiny_cfg(vocab_size=200, max_seq_len=12)
    state = run_federated(model_cfg, LoraConfig(rank=2, seed=3, targets=("q", "v")),
                          FedConfig(n_clients=3, rounds=2, local_epochs=1, eta=0.3,
                                    batch_size=8, seed=4),
                          records, PartitionSpec(n_clients=3, strategy="iid", seed=6))
    n = state.theta.size
    uplink_exact = all(r.uplink_bytes == 3 * n * 4 for r in state.history)

    desk = attach_adapters(init_model(ModelConfig()),
                           LoraConfig(rank=4, seed=0, targets=("q", "v")))
    trainable, _ = trainable_param_count(desk)
    ratio = trainable / desk.base.param_count()

    ok = uplink_exact and ratio < 0.05
    report("criterion 7 (communication accounting)", ok,
           f"uplink == K*n*4 per round: {uplink_exact}; trainable ratio {ratio:.4f} < 0.05")


# 8. partition soundness -----------------------------------------------------

def test_criterion_8_partition_soundness():
    gen = np.random.default_rng(0)
    sound = True
    for trial in range(100):
        n = int(gen.integers(5, 150))
        k = int(gen.integers(1, min(n, 8) + 1))
        strategy = ["iid", "label_skew", "quantity_skew"][trial % 3]
        kwargs = {}
        if strategy == "label_skew":
            kwargs["alpha"] = float(gen.uniform(0.05, 10.0))
        if strategy == "quantity_skew":
            raw = gen.uniform(0.5, 2.0, size=k)
            ratios = (raw / raw.sum()).tolist()
            ratios[-1] = 1.0 - sum(ratios[:-1])
            kwargs["ratios"] = ratios
        spec = PartitionSpec(n_clients=k, strategy=strategy, seed=trial, **kwargs)
        records = synth_corpus(n, seed=trial)
        groups = partition_clients(records, spec)
        seen = sorted(r.id for g in groups for r in g)
        sound &= seen == sorted(r.id for r in records)
        sound &= len(seen) == len(set(seen))

    corpus_note = "real corpus not present, row-count check skipped"
    for path in REAL_CORPUS_PATHS:
        if os.path.exists(path):
            rows = len(load_corpus(path))
            sound &= rows == REAL_CORPUS_EXPECTED_ROWS
            corpus_note = f"{path}: {rows} rows (expected {REAL_CORPUS_EXPECTED_ROWS})"
            break

    report("criterion 8 (partition soundness)", sound,
           f"100 randomized specs lossless and duplicate-free; {corpus_note}")
