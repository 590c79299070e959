"""Helper processes: forked once per run, serving its rounds until it ends.

A run on any number of processes equals the sequential run bit for bit, and
every way a helper can fail maps onto the round contract: a ClientError skips
its client, any other exception is raised again in the run process, and a
helper that dies before it replies raises RoundError. No test leaves a child
behind (`no_child_left` in conftest.py).
"""

import dataclasses
import errno
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from fedlora import federation
from fedlora.autodiff import Tensor
from fedlora.cli import main
from fedlora.config import load_experiment
from fedlora.data import PartitionSpec, synth_corpus
from fedlora.errors import ClientError, DataError, ProtocolError, RoundError
from fedlora.federation import (EVAL_ROWS, EncodedSet, FedConfig, GlobalState, Helpers,
                                comm_cost, encode_records, eval_phase, evaluate,
                                run_federated, run_round)
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import PAD_ID, ModelConfig, build_vocab, init_model, real_width

from test_cli import write_config
from test_federation import DESK_MODEL, empty_set, run_round_in_process, training_fixture


def force_cores(monkeypatch, n):
    monkeypatch.setattr(federation, "usable_cores", lambda: n)


@pytest.fixture(autouse=True)
def two_cores(monkeypatch):
    """Two usable cores unless a test forces another count, so that a phase
    of two items sends one to a helper on any machine."""
    force_cores(monkeypatch, 2)


def count_forks(monkeypatch):
    """Record every os.fork call made in this process."""
    seen = []
    real = os.fork

    def spy():
        seen.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return seen


def count_groups(monkeypatch):
    """Record the process count of every split `assign` makes: for each
    phase, training then eval, the split `phase_processes` tries and, if that
    one is over its bound, the split it keeps instead, all made once, before
    the helpers are forked."""
    seen = []
    real = federation.assign

    def spy(loads, n_proc):
        seen.append(n_proc)
        return real(loads, n_proc)

    monkeypatch.setattr(federation, "assign", spy)
    return seen


TEST_PID = os.getpid()


def in_worker():
    return os.getpid() != TEST_PID


def patch_client_update(monkeypatch, on_worker):
    """client_update that calls on_worker(client_id) when it runs in a helper."""
    real = federation.client_update

    def patched(template, snapshot, train_set, cfg, round_idx, client_id):
        if in_worker():
            return on_worker(client_id)
        return real(template, snapshot, train_set, cfg, round_idx, client_id)

    monkeypatch.setattr(federation, "client_update", patched)


def client_round(sizes):
    """Clients holding the first `sizes[cid]` of 24 records, E=1, B=8; the
    eval set is the 24 records."""
    am, train = training_fixture()
    cfg = FedConfig(n_clients=len(sizes), rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    sets = {cid: EncodedSet(ids=train.ids[:n], labels=train.labels[:n])
            for cid, n in enumerate(sizes)}
    return GlobalState(theta=extract_trainable(am), model=am.clone()), sets, cfg, train


def two_client_round():
    """Two equal shards: on two cores client 0 trains in this process, client
    1 on a helper."""
    return client_round((24, 24))


def run_two_client_round():
    """One round of two_client_round on one helper, forked after the caller's patches."""
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
    return state


def eval_fixture(n_records):
    """An adapted model with nonzero adapters, and n_records encoded records."""
    records = synth_corpus(n_records, seed=7)
    cfg = ModelConfig(**DESK_MODEL)
    am = attach_adapters(init_model(cfg), LoraConfig(rank=2, seed=3, targets=("q", "v", "ff1")))
    gen = np.random.default_rng(0)
    for adapter in am.adapters.values():
        adapter.b.data = gen.normal(size=adapter.b.data.shape)
    vocab = build_vocab([r.text for r in records], cfg.vocab_size)
    return am, encode_records(records, vocab, cfg.max_seq_len)


def evaluate_on(model, eval_set):
    """evaluate on helpers started with no clients: they are forked for the
    eval split alone."""
    with Helpers(model, {}, FedConfig(), eval_set) as helpers:
        return evaluate(extract_trainable(model), helpers)


# parallel == sequential ----------------------------------------------------

@pytest.mark.parametrize("aggregation", ["uniform_mean", "weighted_by_n"])
@pytest.mark.parametrize("strategy", ["iid", "label_skew"])
def test_parallel_run_equals_sequential_bit_for_bit(monkeypatch, strategy, aggregation):
    records = synth_corpus(500, seed=21)
    fed = FedConfig(n_clients=8, rounds=2, local_epochs=1, eta=0.3, batch_size=8, seed=4,
                    aggregation=aggregation)
    spec = PartitionSpec(n_clients=8, strategy=strategy, alpha=0.5, seed=6)

    seen = count_groups(monkeypatch)
    forks = count_forks(monkeypatch)

    def run(cores):
        force_cores(monkeypatch, cores)
        seen.clear()
        forks.clear()
        state = run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5), fed,
                              records, spec, eval_frac=0.5)
        # the run process loads each round's theta to answer its eval group
        assert extract_trainable(state.model).tobytes() == state.theta.tobytes()
        reports = [r.to_dict() for r in state.history]
        for r in reports:
            del r["wall_time"]
        return state.theta, reports, list(seen), len(forks)

    theta1, reports1, groups1, forks1 = run(1)
    assert groups1 == [1, 1] and forks1 == 0
    for cores in (2, 8):
        theta, reports, groups, n_forks = run(cores)
        # training takes one process per client up to the cores (the clients
        # are even enough that the rule for uneven loads does not fire); eval
        # runs its three batches (250 records of width 11, 93 to a batch) on
        # min(3, cores); each phase is split once, when the helpers are forked
        evals = min(3, cores)
        assert groups == [cores, evals]
        assert n_forks == cores - 1
        assert np.array_equal(theta, theta1)
        assert reports == reports1


def test_helpers_fork_once_per_run_not_per_round(monkeypatch):
    records = synth_corpus(120, seed=21)
    fed = FedConfig(n_clients=4, rounds=3, local_epochs=1, eta=0.3, batch_size=8, seed=4)
    spec = PartitionSpec(n_clients=4, strategy="iid", seed=6)
    forks = count_forks(monkeypatch)
    # 4 clients of 19 records and one 24-record eval batch: a process per
    # core, except that 3 cores would give one process 38 records against a
    # bound of 26, so training takes a process per client
    for cores, processes in ((1, 1), (2, 2), (3, 4)):
        force_cores(monkeypatch, cores)
        forks.clear()
        state = run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5), fed,
                              records, spec)
        assert state.round_idx == 3
        assert forks == [TEST_PID] * (processes - 1)
        assert state.processes == processes


def test_one_batch_eval_stays_in_the_run_process(monkeypatch):
    # configs/ablation_skew.json: 400 records, eval_frac 0.2, so 80 eval
    # records of width 11 make one batch (1024 // 11 = 93 records)
    exp = load_experiment(os.path.join(os.path.dirname(__file__), "..", "configs",
                                       "ablation_skew.json"))
    records = exp.data.load_records()
    seen = count_groups(monkeypatch)
    forks = count_forks(monkeypatch)
    for k, n_forks in ((1, 0), (3, 1)):
        seen.clear()
        forks.clear()
        fed = dataclasses.replace(exp.fed, n_clients=k, rounds=2, local_epochs=1)
        run_federated(exp.model, exp.lora, fed, records, exp.data.partition,
                      eval_frac=exp.data.eval_frac)
        # a single client and a single eval batch need no helper; with three
        # clients one helper trains, and eval still sends it nothing
        assert len(forks) == n_forks
        assert seen == [min(k, 2), 1]


def test_clients_go_largest_first_to_the_least_loaded_process():
    sizes = {0: 5, 1: 9, 2: 9, 3: 1, 4: 3}
    # 1 and 2 tie on size (client id decides), then 0 goes to the first of
    # two equally loaded processes
    assert federation.assign(sizes, 2) == [[1, 0], [2, 4, 3]]
    assert federation.assign(sizes, 1) == [[1, 2, 0, 4, 3]]
    assert federation.assign({}, 1) == [[]]
    # desk_federated's five eval batches (400 records, 93 to a batch)
    desk_eval = {0: 93, 93: 93, 186: 93, 279: 93, 372: 28}
    assert federation.assign(desk_eval, 2) == [[0, 186, 372], [93, 279]]


def test_eval_batch_holds_eval_rows_at_the_longest_real_row():
    ids = np.full((500, 12), PAD_ID, dtype=np.intp)
    ids[:, 0] = 2
    ids[:, 1:3] = 7  # width 3 everywhere ...
    ids[321, 1:5] = 9  # ... but one row of width 5
    loads, step = eval_phase(EncodedSet(ids=ids, labels=np.zeros(500, dtype=int)))
    assert step == EVAL_ROWS // 5
    assert list(loads) == list(range(0, 500, EVAL_ROWS // 5))
    assert set(list(loads.values())[:-1]) == {step} and sum(loads.values()) == 500
    wide = np.full((3, 2000), 2, dtype=np.intp)  # wider than EVAL_ROWS: one record a batch
    assert eval_phase(EncodedSet(ids=wide, labels=np.zeros(3, dtype=int))) == ({0: 1, 1: 1, 2: 1}, 1)
    assert eval_phase(empty_set())[0] == {}


@pytest.mark.parametrize("n_records", [2, 7, 400])
def test_eval_batch_size_is_eval_rows_over_the_real_width(n_records):
    _, eval_set = eval_fixture(n_records)
    for s in (eval_set, empty_set()):
        assert eval_phase(s)[1] == EVAL_ROWS // real_width(s.ids != PAD_ID)


def test_evaluate_keeps_batch_boundaries_on_any_core_count(monkeypatch):
    am, eval_set = eval_fixture(700)
    loads, size = eval_phase(eval_set)
    assert size == EVAL_ROWS // 11 and len(loads) == 8  # the last batch is short
    assert list(loads.values())[-1] == 49
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

    forks = count_forks(monkeypatch)
    results = []
    for cores in (1, 2, 8):  # one process, two, and one per batch
        force_cores(monkeypatch, cores)
        forks.clear()
        results.append(evaluate_on(am, eval_set))
        assert len(forks) == cores - 1
        with pytest.raises(DataError, match="empty confusion matrix"):
            evaluate_on(am, empty)
    assert results[0] == results[1] == results[2]
    assert 0.0 < results[0][0] < 1.0
    assert preds_seen[0] == preds_seen[2] == preds_seen[4]

    monkeypatch.setattr(federation, "forward", first_row_positive)
    preds_seen.clear()
    for cores in (1, 2, 8):
        force_cores(monkeypatch, cores)
        evaluate_on(am, eval_set)
        assert preds_seen.pop() == [int(i % size == 0) for i in range(len(eval_set))]


def test_helpers_refuse_another_model_or_data(monkeypatch):
    force_cores(monkeypatch, 1)
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(ProtocolError, match="another client_sets"):
            run_round(state, dict(sets), cfg, eval_set, helpers)
        with pytest.raises(ProtocolError, match="another template"):
            run_round(dataclasses.replace(state, model=state.model.clone()), sets, cfg, eval_set,
                      helpers)
        with pytest.raises(ProtocolError, match="another cfg"):
            run_round(state, sets, dataclasses.replace(cfg), eval_set, helpers)
        with pytest.raises(ProtocolError, match="another eval_set"):
            run_round(state, sets, cfg, empty_set(), helpers)
    assert state.round_idx == 0 and not state.history


# helper failures -----------------------------------------------------------

def test_client_error_in_worker_skips_that_client(monkeypatch):
    def fail(cid):
        raise ClientError(f"client {cid} failed in its worker")

    patch_client_update(monkeypatch, fail)
    state = run_two_client_round()
    report = state.history[0]
    assert report.client_losses[1] is None
    assert report.client_losses[0] is not None
    assert report.uplink_bytes == comm_cost(1, state.theta.size)
    assert report.downlink_bytes == comm_cost(2, state.theta.size)


def test_other_exception_in_worker_is_raised_in_parent(monkeypatch):
    def fail(cid):
        raise ValueError(f"client {cid} hit a bug")

    patch_client_update(monkeypatch, fail)
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(ValueError, match="^client 1 hit a bug$"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert state.round_idx == 0 and not state.history
        # the helper survives its exception and serves the next request; the
        # split was made at the fork, so the next round reads no cores
        monkeypatch.undo()
        with pytest.raises(ValueError, match="^client 1 hit a bug$"):
            run_round(state, sets, cfg, eval_set, helpers)
    assert state.round_idx == 0 and not state.history


def test_parent_group_exception_still_reaps_children(monkeypatch):
    real = federation.client_update

    def patched(*args):
        if not in_worker():
            raise ValueError("the run process failed")
        return real(*args)

    monkeypatch.setattr(federation, "client_update", patched)
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(ValueError, match="run process failed"):
            run_round(state, sets, cfg, eval_set, helpers)
        # the helper's reply was received, so the next round starts clean: a
        # reply left over from the failed round would not match a new snapshot
        monkeypatch.undo()
        state.theta = state.theta * 0.5
        ref = GlobalState(theta=state.theta.copy(), model=state.model.clone())
        run_round_in_process(ref, sets, cfg, eval_set)
        run_round(state, sets, cfg, eval_set, helpers)
    assert np.array_equal(state.theta, ref.theta)
    assert state.history[0].to_dict() | {"wall_time": 0} == ref.history[0].to_dict() | {"wall_time": 0}


def test_run_federated_reaps_helpers_when_its_own_group_fails(monkeypatch):
    def fail(*args):
        raise ValueError("bug in every process")

    monkeypatch.setattr(federation, "client_update", fail)
    records = synth_corpus(60, seed=21)
    with pytest.raises(ValueError, match="bug in every process"):
        run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5),
                      FedConfig(n_clients=2, rounds=2, local_epochs=1, batch_size=8, seed=4),
                      records, PartitionSpec(n_clients=2, strategy="iid", seed=6))


def kill_self(cid):
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_worker_raises_round_error(monkeypatch):
    patch_client_update(monkeypatch, kill_self)
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(RoundError, match=r"round 0: clients \[1\].*killed by signal 9"):
            run_round(state, sets, cfg, eval_set, helpers)
    assert state.round_idx == 0 and not state.history


def test_killed_eval_worker_raises_round_error(monkeypatch):
    real = federation.forward

    def patched(model, ids):
        if in_worker():
            os.kill(os.getpid(), signal.SIGKILL)
        return real(model, ids)

    monkeypatch.setattr(federation, "forward", patched)
    am, eval_set = eval_fixture(100)
    assert list(eval_phase(eval_set)[0]) == [0, 93]
    with pytest.raises(RoundError, match=r"eval batches at records \[93\].*signal 9"):
        evaluate_on(am, eval_set)


def wait_until_zombie(pid):
    """Wait until `pid`, a child not yet reaped, has exited: its state in
    /proc/<pid>/stat (after the parenthesised name) reads Z."""
    deadline = time.monotonic() + 10
    while Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, f"helper {pid} is still running"
        time.sleep(0.01)


def test_idle_helper_killed_between_rounds_raises_round_error(monkeypatch):
    state, sets, cfg, eval_set = two_client_round()
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
        pid = helpers.procs[0][0]
        os.kill(pid, signal.SIGKILL)
        wait_until_zombie(pid)  # so its request pipe has no reader left
        broken, real_write = [], federation._write_all

        def write(fd, data):
            try:
                real_write(fd, data)
            except BrokenPipeError:
                broken.append(fd)
                raise

        monkeypatch.setattr(federation, "_write_all", write)
        with pytest.raises(RoundError, match=r"round 1: clients \[1\].*killed by signal 9"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert len(broken) == 1
    assert state.round_idx == 1 and len(state.history) == 1


def fail_on_call(monkeypatch, name, call):
    """Make the `call`-th call of os.`name` raise EMFILE."""
    real, calls = getattr(os, name), []

    def fake(*args):
        calls.append(args)
        if len(calls) == call:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real(*args)

    monkeypatch.setattr(os, name, fake)


# the reply pipe of the first helper, the request pipe of the second, and the
# fork of the second
@pytest.mark.parametrize("name, call", [("pipe", 2), ("pipe", 3), ("fork", 2)])
def test_helpers_that_fail_to_start_close_every_pipe_end(monkeypatch, name, call):
    force_cores(monkeypatch, 3)  # three clients on three cores: two helpers
    state, sets, cfg, eval_set = client_round((24,) * 3)
    before = sorted(os.listdir("/proc/self/fd"))
    fail_on_call(monkeypatch, name, call)
    with pytest.raises(OSError) as raised:
        Helpers(state.model, sets, cfg, eval_set)
    assert raised.value.errno == errno.EMFILE
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_a_round_after_a_helper_died_raises_round_error_before_any_request(monkeypatch):
    # three clients on three cores: the helper for client 2 dies in round 1.
    # Its group stays in the split, so a later round must refuse to run
    # rather than drop that client or re-split over the helper left
    force_cores(monkeypatch, 3)
    real = federation.client_update

    def patched(template, snapshot, train_set, cfg, round_idx, client_id):
        if in_worker() and (round_idx, client_id) == (1, 2):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(template, snapshot, train_set, cfg, round_idx, client_id)

    monkeypatch.setattr(federation, "client_update", patched)
    state, sets, cfg, eval_set = client_round((24, 24, 24))
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        assert helpers.splits["train"] == [[0], [1], [2]] and len(helpers.procs) == 2
        run_round(state, sets, cfg, eval_set, helpers)
        with pytest.raises(RoundError, match=r"round 1: clients \[2\].*killed by signal 9"):
            run_round(state, sets, cfg, eval_set, helpers)
        writes = []
        real_write = federation._write_all

        def write(fd, data):
            writes.append(fd)
            real_write(fd, data)

        monkeypatch.setattr(federation, "_write_all", write)
        with pytest.raises(RoundError, match=r"^round 1: clients: 1 helper"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert writes == []
    assert state.round_idx == 1 and len(state.history) == 1


def test_a_helper_exits_once_its_own_request_pipe_closes(monkeypatch):
    # no later helper may hold the run process's end of an earlier helper's
    # pipe; four clients on four cores fork three helpers
    force_cores(monkeypatch, 4)
    state, sets, cfg, eval_set = client_round((24,) * 4)
    with Helpers(state.model, sets, cfg, eval_set) as helpers:
        assert len(helpers.procs) == 3
        pid, fd, replies = helpers.procs.pop(0)
        os.close(fd)
        try:
            deadline = time.monotonic() + 10
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                assert time.monotonic() < deadline, "the first helper still waits for requests"
                time.sleep(0.01)
            pid = None
            assert replies.read() == b""
        finally:
            replies.close()
            if pid is not None:  # reaped once its siblings exit and drop the pipe
                helpers.close()
                os.waitpid(pid, 0)
        assert len(helpers.procs) == 2


def test_killed_worker_cli_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    patch_client_update(monkeypatch, kill_self)
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 1
    assert "killed by signal 9" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unpicklable_result_raises_round_error_and_child_never_returns(monkeypatch, tmp_path):
    patch_client_update(monkeypatch, lambda cid: (lambda: cid, 0.0))
    marker = tmp_path / "pids"
    try:
        with pytest.raises(RoundError, match=r"clients \[1\].*exit code 1"):
            run_two_client_round()
    finally:  # a helper that returned into the caller would append its pid too
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
    poison_sgd_step(monkeypatch, only_in_worker=True)
    state = run_two_client_round()
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
