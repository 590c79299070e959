"""Clients cut at a step boundary: `plan_training` and the carry pipes.

When `assign` leaves one process more than a batch over the bound
max(largest load, ceil(total / processes)), the training phase follows
McNaughton's wrap-around rule: one client per process boundary is split
into a head, run first on the next process, and a tail, run last on this
one from the head's carry. A run stays bit-identical, and every way a head
can fail maps onto the round contract as it would for a whole client.
"""

import contextlib
import dataclasses
import importlib.util
import json
import os
import random
import signal
from pathlib import Path

import numpy as np
import pytest

from fedlora import federation
from fedlora.cli import RUN_FILES, main
from fedlora.config import load_experiment
from fedlora.errors import ClientError, RoundError
from fedlora.federation import FedConfig, GlobalState, Helpers, assign, plan_training, run_round
from fedlora.lora import extract_trainable

from test_cli import write_config
from test_federation import run_round_in_process, training_fixture
from test_workers import force_cores, in_worker

REPO = Path(__file__).resolve().parents[1]


def group_loads(groups, sizes, epochs, batch):
    """Record-epochs per group: a piece counts the records its steps train."""
    def offset(n, step):
        per_epoch = -(-n // batch)
        return step // per_epoch * n + min(step % per_epoch * batch, n)

    return [sum(offset(sizes[item[0]], item[1].stop) - offset(sizes[item[0]], item[1].start)
                if isinstance(item, tuple) else epochs * sizes[item] for item in group)
            for group in groups]


def check_plan(groups, sizes, n_proc, epochs, batch):
    """Every client's steps run once; a cut client's head opens group i + 1,
    its tail closes group i and takes over where the head stops; no group
    is a batch over the bound."""
    assert len(groups) == n_proc
    placed = [item if not isinstance(item, tuple) else item[0] for group in groups for item in group]
    for i, group in enumerate(groups):
        for j, item in enumerate(group):
            if isinstance(item, tuple) and item[1].start == 0:
                cid, head = item
                tail = groups[i - 1][-1]
                assert i > 0 and j == 0 and sizes[cid] > 0 and len(head) > 0
                assert tail == (cid, range(head.stop, epochs * -(-sizes[cid] // batch)))
                placed.remove(cid)
    assert sorted(placed) == sorted(sizes)
    loads = {cid: epochs * n for cid, n in sizes.items()}
    bound = max(max(loads.values(), default=0), -(-sum(loads.values()) // n_proc))
    assert max(group_loads(groups, sizes, epochs, batch)) <= bound + batch


# the rule ------------------------------------------------------------------

def test_desk_cut_gives_each_process_one_batch_of_the_bound():
    # desk_federated: 427/426/426 training records, E=2, B=16: loads
    # 854/852/852, and assign's [[0], [1, 2]] puts 1704 on one process
    sizes = {0: 427, 1: 426, 2: 426}
    assert assign({cid: 2 * n for cid, n in sizes.items()}, 2) == [[0], [1, 2]]
    groups = plan_training(sizes, 2, epochs=2, batch=16)
    # client 1 is cut after its first epoch (27 steps of 16, the last of 10)
    assert groups == [[0, (1, range(27, 54))], [(1, range(27)), 2]]
    assert all(abs(load - 1279) <= 16 for load in group_loads(groups, sizes, 2, 16))
    check_plan(groups, sizes, 2, 2, 16)


def test_skew_corpus_0_keeps_assigns_groups():
    # skew_long_csv corpus 0: largest group 120 against a bound of 119.5,
    # within one batch, so nothing is cut
    sizes = dict(enumerate([24, 41, 75, 2, 14, 2, 75, 6]))
    assert plan_training(sizes, 2, epochs=1, batch=16) == assign(sizes, 2)


def test_no_cut_with_a_process_per_client_or_for_an_empty_client():
    assert plan_training({0: 100, 1: 3}, 2, epochs=3, batch=8) == [[0], [1]]
    assert plan_training({0: 5, 1: 5, 2: 5}, 3, epochs=1, batch=1) == [[0], [1], [2]]
    assert plan_training({0: 40}, 1, epochs=2, batch=8) == [[0]]
    assert plan_training({}, 1, epochs=1, batch=8) == [[]]
    rand = random.Random(5)
    for _ in range(300):
        sizes = {cid: rand.choice([0, 0, rand.randint(1, 60)]) for cid in range(rand.randint(1, 9))}
        n_proc = rand.randint(1, 4)
        epochs, batch = rand.randint(1, 3), rand.randint(1, 16)
        groups = plan_training(sizes, n_proc, epochs, batch)
        check_plan(groups, sizes, n_proc, epochs, batch)
        cut = {item[0] for group in groups for item in group if isinstance(item, tuple)}
        assert all(sizes[cid] for cid in cut)
        assert len(cut) < n_proc
        if len(sizes) <= n_proc:
            assert not cut


def plan_of(monkeypatch, path, *overrides):
    """plan_training's first groups in a run of the config at `path` on 2
    cores; the run stops there."""
    seen = []

    class Planned(Exception):
        pass

    def spy(*args, **kwargs):
        seen.append(plan_training(*args, **kwargs))
        raise Planned

    monkeypatch.setattr(federation, "plan_training", spy)
    force_cores(monkeypatch, 2)
    exp = load_experiment(path, list(overrides))
    with pytest.raises(Planned):
        federation.run_federated(exp.model, exp.lora, exp.fed, exp.data.load_records(),
                                 exp.data.partition, eval_frac=exp.data.eval_frac)
    return seen[0]


def is_cut(groups):
    return any(isinstance(item, tuple) for group in groups for item in group)


def test_real_configs_cut_desk_and_ablation_k3_but_not_skew(monkeypatch, tmp_path):
    configs = REPO / "configs"
    assert is_cut(plan_of(monkeypatch, configs / "desk_federated.json"))
    # ablation_skew's K=3 cell (E=10) is cut; its K=1 cells have one process
    assert is_cut(plan_of(monkeypatch, configs / "ablation_skew.json"))
    assert plan_of(monkeypatch, configs / "ablation_skew.json", "fed.n_clients=1") == [[0]]
    spec = importlib.util.spec_from_file_location("corpus", REPO / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    csv_path = tmp_path / "skew0.csv"
    corpus.write_csv(csv_path, corpus.generate(0))
    source = json.dumps({"csv": str(csv_path)})
    assert not is_cut(plan_of(monkeypatch, REPO / "perfbench" / "skew_long_csv.json",
                              f"data.source={source}"))


# a split client in a run ----------------------------------------------------

@contextlib.contextmanager
def deadline(seconds=60):
    """TimeoutError in this process if the block hangs (a carry never sent)."""
    def expire(signum, frame):
        signal.alarm(5)  # and again, should the clean-up hang too
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def three_client_round():
    """Three equal shards of 24 records, E=1, B=8: on two processes client 1
    is cut after its first step, its head on the helper, its tail here."""
    am, train = training_fixture()
    cfg = FedConfig(n_clients=3, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    sets = {0: train, 1: train, 2: train}
    assert plan_training({cid: len(s) for cid, s in sets.items()}, 2, 1, 8) == \
        [[0, (1, range(1, 3))], [(1, range(1)), 2]]
    return GlobalState(theta=extract_trainable(am), model=am.clone()), sets, cfg, train


def patch_head(monkeypatch, on_head):
    """client_update whose head pieces (steps from 0, short of the end) call
    on_head(round_idx, real result) for what they return."""
    real = federation.client_update

    def patched(template, snapshot, train_set, cfg, round_idx, client_id, steps=None, carry=None):
        out = real(template, snapshot, train_set, cfg, round_idx, client_id, steps, carry)
        if steps is not None and steps.start == 0:
            return on_head(round_idx, out)
        return out

    monkeypatch.setattr(federation, "client_update", patched)


def reference_rounds(state, sets, cfg, eval_set, n):
    ref = GlobalState(theta=state.theta.copy(), model=state.model.clone())
    for _ in range(n):
        run_round_in_process(ref, sets, cfg, eval_set)
    return ref


def same_reports(a, b):
    return [r.to_dict() | {"wall_time": 0} for r in a.history] == \
        [r.to_dict() | {"wall_time": 0} for r in b.history]


@pytest.mark.parametrize("n_clients,n_helpers", [(3, 1), (4, 2), (5, 3)])
def test_split_round_equals_the_in_process_round_bit_for_bit(n_clients, n_helpers):
    state, sets, cfg, eval_set = three_client_round()
    sets = {cid: sets[0] for cid in range(n_clients)}
    cfg = dataclasses.replace(cfg, n_clients=n_clients)
    groups = plan_training({cid: len(s) for cid, s in sets.items()}, n_helpers + 1, 1, 8)
    if n_helpers > 1:  # a helper with both a head and a tail: carry pipes between helpers
        assert isinstance(groups[1][0], tuple) and isinstance(groups[1][-1], tuple)
    ref = reference_rounds(state, sets, cfg, eval_set, 2)
    with deadline(), Helpers(n_helpers, state.model, sets, cfg, eval_set) as helpers:
        for _ in range(2):
            run_round(state, sets, cfg, eval_set, helpers)
    assert state.theta.tobytes() == ref.theta.tobytes()
    assert same_reports(state, ref)


def test_helpers_close_every_carry_pipe_end_they_made():
    state, sets, cfg, eval_set = three_client_round()
    before = sorted(os.listdir("/proc/self/fd"))
    with deadline(), Helpers(3, state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
        # the request and reply pipes of three helpers, and carry pipe 0
        assert len(os.listdir("/proc/self/fd")) == len(before) + 3 * 2 + 1
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_helper_killed_during_a_head_raises_round_error(monkeypatch):
    def kill(round_idx, out):
        os.kill(os.getpid(), signal.SIGKILL)

    patch_head(monkeypatch, kill)
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(RoundError, match=r"^round 0: client 1: .*ended without"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert not helpers.procs  # the dead helper was reaped
    assert state.round_idx == 0 and not state.history


def test_other_exception_in_a_head_is_raised_here_and_the_helper_serves_on(monkeypatch):
    failed = []  # in the helper's memory

    def fail_once(round_idx, out):
        if not failed:
            failed.append(round_idx)
            raise ValueError("head bug in round 0")
        return out

    patch_head(monkeypatch, fail_once)
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(ValueError, match="^head bug in round 0$"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert state.round_idx == 0 and len(helpers.procs) == 1
        ref = reference_rounds(state, sets, cfg, eval_set, 1)
        run_round(state, sets, cfg, eval_set, helpers)
    assert state.theta.tobytes() == ref.theta.tobytes()
    assert state.history[0].to_dict()["client_losses"] == ref.history[0].to_dict()["client_losses"]


def test_client_error_in_a_head_skips_its_client(monkeypatch):
    def fail(round_idx, out):
        raise ClientError("client 1 failed in its head")

    patch_head(monkeypatch, fail)
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
    losses = state.history[0].client_losses
    assert losses[1] is None and losses[0] is not None and losses[2] is not None


def test_unpicklable_carry_raises_round_error_naming_the_client(monkeypatch):
    patch_head(monkeypatch, lambda round_idx, out: (lambda: round_idx, out[1]))
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(RoundError, match=r"^round 0: client 1: .*cannot be sent"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert len(helpers.procs) == 1  # the helper lives on
    assert state.round_idx == 0


def test_run_process_failing_before_its_tail_leaves_no_carry_behind(monkeypatch):
    real = federation.client_update
    failed = []

    def patched(*args, **kwargs):
        if not in_worker() and not failed:
            failed.append(args[5])
            raise ValueError("the run process failed first")
        return real(*args, **kwargs)

    monkeypatch.setattr(federation, "client_update", patched)
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        with pytest.raises(ValueError, match="run process failed first"):
            run_round(state, sets, cfg, eval_set, helpers)
        assert failed == [0]  # client 0, before client 1's tail took its carry
        # a carry left over from the failed round would start the tail
        # from the first round's head, not this one's
        state.theta = state.theta * 0.5
        ref = reference_rounds(state, sets, cfg, eval_set, 1)
        run_round(state, sets, cfg, eval_set, helpers)
    assert state.theta.tobytes() == ref.theta.tobytes()
    assert same_reports(state, ref)


def test_nan_head_skips_its_client_as_a_whole_client_would_be(monkeypatch):
    def poison(round_idx, out):
        theta, losses = out
        theta = theta.copy()
        theta[0] = np.nan
        return theta, losses

    patch_head(monkeypatch, poison)
    state, sets, cfg, eval_set = three_client_round()
    with deadline(), Helpers(1, state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
    report = state.history[0]
    assert report.client_losses[1] is None
    assert report.client_losses[0] is not None and report.client_losses[2] is not None
    # the round averages clients 0 and 2, as if client 1 had diverged whole
    ref_state, _, _, _ = three_client_round()
    run_round_in_process(ref_state, {0: sets[0], 2: sets[2]},
                         dataclasses.replace(cfg, n_clients=2), eval_set)
    assert state.theta.tobytes() == ref_state.theta.tobytes()


def test_three_equal_clients_on_two_cores_write_the_files_of_one(monkeypatch, tmp_path):
    def run(cores):
        force_cores(monkeypatch, cores)
        fed = {"n_clients": 3, "rounds": 2, "local_epochs": 2, "eta": 0.3, "batch_size": 8,
               "seed": 2}
        data = {"source": {"synthetic": 150}, "seed": 3, "eval_frac": 0.2,
                "partition": {"n_clients": 3, "strategy": "iid", "seed": 4}}
        (tmp_path / f"cores{cores}").mkdir()
        cfg, out = write_config(tmp_path / f"cores{cores}", fed=fed, data=data)
        with deadline():
            assert main(["train-federated", cfg]) == 0
        files = {}
        for name in RUN_FILES:
            files[name] = (Path(out) / name).read_bytes()
        files["rounds.jsonl"] = [{**json.loads(line), "wall_time": 0}
                                 for line in files["rounds.jsonl"].splitlines()]
        summary = json.loads(files["summary.json"])
        files["summary.json"] = {**summary, "wall_time_s": 0, "processes": 0}
        return files, summary["processes"]

    plans = []

    def spy(*args, **kwargs):
        plans.append(plan_training(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(federation, "plan_training", spy)
    one, processes1 = run(1)
    two, processes2 = run(2)
    assert (processes1, processes2) == (1, 2)
    assert any(is_cut(groups) for groups in plans)
    assert one == two
