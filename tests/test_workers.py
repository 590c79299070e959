"""Forked client and eval workers.

A run on any number of processes equals the sequential run bit for bit, and
every way a worker can fail maps onto the round contract: a ClientError skips
its client, any other exception is raised again in the parent, and a worker
that ends without a result raises RoundError. No test leaves a child behind.
"""

import os
import signal

import numpy as np
import pytest

from fedlora import federation
from fedlora.autodiff import Tensor
from fedlora.cli import main
from fedlora.data import PartitionSpec, synth_corpus
from fedlora.errors import ClientError, DataError, RoundError
from fedlora.federation import (EVAL_BATCH, FedConfig, GlobalState, comm_cost, encode_records,
                                evaluate, run_federated, run_round)
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import ModelConfig, build_vocab, init_model

from test_cli import write_config
from test_federation import DESK_MODEL, empty_set, training_fixture


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_cores(monkeypatch, n):
    monkeypatch.setattr(federation, "usable_cores", lambda: n)


def count_groups(monkeypatch):
    """Record len(groups) of every fork_map call."""
    seen = []
    real = federation.fork_map

    def spy(work, groups, what):
        seen.append(len(groups))
        return real(work, groups, what)

    monkeypatch.setattr(federation, "fork_map", spy)
    return seen


TEST_PID = os.getpid()


def in_worker():
    return os.getpid() != TEST_PID


def patch_client_update(monkeypatch, on_worker):
    """client_update that calls on_worker(client_id) when it runs in a forked child."""
    real = federation.client_update

    def patched(template, snapshot, train_set, cfg, round_idx, client_id):
        if in_worker():
            return on_worker(client_id)
        return real(template, snapshot, train_set, cfg, round_idx, client_id)

    monkeypatch.setattr(federation, "client_update", patched)


def two_client_round():
    """Two equal shards: client 0 trains in this process, client 1 in a child."""
    am, train = training_fixture()
    cfg = FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    state = GlobalState(theta=extract_trainable(am), round_idx=0, model=am.clone())
    return state, {0: train, 1: train}, cfg, train


# parallel == sequential ----------------------------------------------------

@pytest.mark.parametrize("aggregation", ["uniform_mean", "weighted_by_n"])
@pytest.mark.parametrize("strategy", ["iid", "label_skew"])
def test_parallel_run_equals_sequential_bit_for_bit(monkeypatch, strategy, aggregation):
    records = synth_corpus(500, seed=21)
    fed = FedConfig(n_clients=8, rounds=2, local_epochs=1, eta=0.3, batch_size=8, seed=4,
                    aggregation=aggregation)
    spec = PartitionSpec(n_clients=8, strategy=strategy, alpha=0.5, seed=6)

    seen = count_groups(monkeypatch)

    def run(cores):
        force_cores(monkeypatch, cores)
        seen.clear()
        state = run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5), fed,
                              records, spec, eval_frac=0.5)
        reports = [r.to_dict() for r in state.history]
        for r in reports:
            del r["wall_time"]
        return state.theta, reports, list(seen)

    theta1, reports1, groups1 = run(1)
    assert set(groups1) == {1}
    for cores in (2, 8):
        theta, reports, groups = run(cores)
        # train calls fork one process per client up to the cores; eval runs
        # its four batches (250 records) on min(4, cores)
        assert groups == [cores, min(4, cores)] * 2
        assert np.array_equal(theta, theta1)
        assert reports == reports1


def test_clients_go_largest_first_to_the_least_loaded_process():
    sizes = {0: [0] * 5, 1: [0] * 9, 2: [0] * 9, 3: [0] * 1, 4: [0] * 3}
    # 1 and 2 tie on size (client id decides), then 0 goes to the first of
    # two equally loaded processes
    assert federation.assign_clients(sizes, 2) == [[1, 0], [2, 4, 3]]
    assert federation.assign_clients(sizes, 1) == [[1, 2, 0, 4, 3]]
    assert federation.assign_clients({}, 1) == [[]]


def test_evaluate_keeps_batch_boundaries_on_any_core_count(monkeypatch):
    records = synth_corpus(EVAL_BATCH * 3 + 5, seed=7)
    cfg = ModelConfig(**DESK_MODEL)
    am = attach_adapters(init_model(cfg), LoraConfig(rank=2, seed=3, targets=("q", "v", "ff1")))
    gen = np.random.default_rng(0)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape)
    eval_set = encode_records(records, build_vocab(records, cfg.vocab_size), cfg.max_seq_len)
    empty = empty_set()
    preds_seen = []
    real_confusion = federation.confusion

    def spy(preds, golds):
        preds_seen.append(list(preds))
        return real_confusion(preds, golds)

    monkeypatch.setattr(federation, "confusion", spy)

    def first_row_positive(model, ids):
        logits = np.zeros((len(ids), 2))
        logits[0, 1] = 1.0
        return Tensor(logits)

    results = []
    for cores in (1, 2, 8):
        force_cores(monkeypatch, cores)
        results.append(evaluate(am, eval_set))
        with pytest.raises(DataError, match="empty confusion matrix"):
            evaluate(am, empty)
    assert results[0] == results[1] == results[2]
    assert 0.0 < results[0][0] < 1.0
    assert preds_seen[0] == preds_seen[2] == preds_seen[4]

    monkeypatch.setattr(federation, "forward", first_row_positive)
    preds_seen.clear()
    for cores in (1, 2, 8):
        force_cores(monkeypatch, cores)
        evaluate(am, eval_set)
        assert preds_seen.pop() == [int(i % EVAL_BATCH == 0) for i in range(len(eval_set))]


# worker failures -----------------------------------------------------------

def test_client_error_in_worker_skips_that_client(monkeypatch):
    force_cores(monkeypatch, 2)

    def fail(cid):
        raise ClientError(f"client {cid} failed in its worker")

    patch_client_update(monkeypatch, fail)
    state, sets, cfg, eval_set = two_client_round()
    run_round(state, sets, cfg, eval_set)
    report = state.history[0]
    assert report.client_losses[1] is None
    assert report.client_losses[0] is not None
    assert report.uplink_bytes == comm_cost(1, state.theta.size)
    assert report.downlink_bytes == comm_cost(2, state.theta.size)


def test_other_exception_in_worker_is_raised_in_parent(monkeypatch):
    force_cores(monkeypatch, 2)

    def fail(cid):
        raise ValueError(f"client {cid} hit a bug")

    patch_client_update(monkeypatch, fail)
    state, sets, cfg, eval_set = two_client_round()
    with pytest.raises(ValueError, match="^client 1 hit a bug$"):
        run_round(state, sets, cfg, eval_set)
    assert state.round_idx == 0 and not state.history


def test_parent_group_exception_still_reaps_children(monkeypatch):
    force_cores(monkeypatch, 2)
    real = federation.client_update

    def patched(*args):
        if not in_worker():
            raise ValueError("the run process failed")
        return real(*args)

    monkeypatch.setattr(federation, "client_update", patched)
    state, sets, cfg, eval_set = two_client_round()
    with pytest.raises(ValueError, match="run process failed"):
        run_round(state, sets, cfg, eval_set)


def kill_self(cid):
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_worker_raises_round_error(monkeypatch):
    force_cores(monkeypatch, 2)
    patch_client_update(monkeypatch, kill_self)
    state, sets, cfg, eval_set = two_client_round()
    with pytest.raises(RoundError, match=r"round 0: clients \[1\].*killed by signal 9"):
        run_round(state, sets, cfg, eval_set)
    assert state.round_idx == 0 and not state.history


def test_killed_eval_worker_raises_round_error(monkeypatch):
    force_cores(monkeypatch, 2)
    real = federation.forward

    def patched(model, ids):
        if in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        return real(model, ids)

    monkeypatch.setattr(federation, "forward", patched)
    records = synth_corpus(100, seed=7)
    cfg = ModelConfig(**DESK_MODEL)
    eval_set = encode_records(records, build_vocab(records, cfg.vocab_size), cfg.max_seq_len)
    with pytest.raises(RoundError, match=r"eval batches at records \[64\].*signal 9"):
        evaluate(init_model(cfg), eval_set)


def test_killed_worker_cli_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    force_cores(monkeypatch, 2)
    patch_client_update(monkeypatch, kill_self)
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 1
    assert "killed by signal 9" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unpicklable_result_raises_round_error_and_child_never_returns(monkeypatch, tmp_path):
    force_cores(monkeypatch, 2)
    patch_client_update(monkeypatch, lambda cid: (lambda: cid, 0.0))
    state, sets, cfg, eval_set = two_client_round()
    marker = tmp_path / "pids"
    try:
        with pytest.raises(RoundError, match=r"clients \[1\].*exit code 1"):
            run_round(state, sets, cfg, eval_set)
    finally:  # a child that returned into the caller would append its pid too
        with open(marker, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    assert marker.read_text(encoding="utf-8").split() == [str(TEST_PID)]


# non-finite updates --------------------------------------------------------

def poison_sgd_step(monkeypatch, only_in_worker):
    """sgd_step that writes a NaN into the first trainable matrix."""
    real = federation.sgd_step

    def poisoned(params, eta):
        real(params, eta)
        if in_worker() or not only_in_worker:
            params[0].data[0, 0] = np.nan

    monkeypatch.setattr(federation, "sgd_step", poisoned)


@pytest.mark.parametrize("poisoned_steps", [range(3), [2]], ids=["every_step", "last_step_only"])
def test_non_finite_update_raises_client_error(monkeypatch, poisoned_steps):
    # 24 records in batches of 8: three steps; poisoning only the last one
    # leaves every loss finite, so theta_k alone must trip the guard
    real = federation.sgd_step
    step = iter(range(3))

    def poisoned(params, eta):
        real(params, eta)
        if next(step) in poisoned_steps:
            params[0].data[0, 0] = np.nan

    monkeypatch.setattr(federation, "sgd_step", poisoned)
    am, train = training_fixture()
    cfg = FedConfig(n_clients=1, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    with pytest.raises(ClientError, match="client 0 diverged"):
        federation.client_update(am, extract_trainable(am), train, cfg, round_idx=0, client_id=0)


def test_non_finite_client_is_skipped(monkeypatch):
    force_cores(monkeypatch, 2)
    poison_sgd_step(monkeypatch, only_in_worker=True)
    state, sets, cfg, eval_set = two_client_round()
    run_round(state, sets, cfg, eval_set)
    report = state.history[0]
    assert report.client_losses[1] is None
    assert np.isfinite(report.client_losses[0])
    assert np.isfinite(state.theta).all()
    assert report.uplink_bytes == comm_cost(1, state.theta.size)


def test_all_clients_diverged_cli_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    poison_sgd_step(monkeypatch, only_in_worker=False)
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 1
    assert "every client failed" in capsys.readouterr().err
    assert not os.path.exists(out)
