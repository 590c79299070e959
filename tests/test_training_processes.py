"""How many processes the training phase takes: `training_processes`.

A round's clients go to `process_count(clients)` processes by `assign`,
unless that leaves one process more than a batch over the bound
max(largest load, ceil(total / processes)); then each client gets its own
process, up to two per usable core, and the kernel shares the cores among
them. Either way a run writes the same files as on one core.
"""

import contextlib
import importlib.util
import json
import math
import os
import random
import resource
import signal
from pathlib import Path

import pytest

from fedlora import federation
from fedlora.cli import RUN_FILES, main
from fedlora.config import load_experiment
from fedlora.federation import (EncodedSet, FedConfig, GlobalState, Helpers, run_federated,
                                run_round, training_processes)
from fedlora.data import PartitionSpec, synth_corpus
from fedlora.lora import LoraConfig, extract_trainable
from fedlora.model import ModelConfig

from test_cli import write_config
from test_federation import DESK_MODEL, run_round_in_process, training_fixture
from test_workers import count_forks, count_groups, force_cores, two_client_round

REPO = Path(__file__).resolve().parents[1]


# the rule ------------------------------------------------------------------

def test_uneven_groups_take_a_process_per_client_on_two_cores(monkeypatch):
    force_cores(monkeypatch, 2)
    # desk_federated: 427/426/426 training records, E=2, B=16; assign's
    # [[0], [1, 2]] puts 1704 on one process against a bound of 1279
    assert training_processes({0: 854, 1: 852, 2: 852}, 16) == 3
    # ablation_skew's K=3 cell: 38/104/112 records, E=10; 1420 against 1270
    assert training_processes({0: 380, 1: 1040, 2: 1120}, 16) == 3
    # skew_long_csv corpus 0, E=1: 120 against a bound of 120, so one per core
    assert training_processes(dict(enumerate([24, 41, 75, 2, 14, 2, 75, 6])), 16) == 2
    assert training_processes({0: 500}, 16) == 1
    assert training_processes({}, 16) == 1


def test_groups_at_most_one_batch_over_the_bound_keep_one_process_per_core(monkeypatch):
    force_cores(monkeypatch, 2)
    assert training_processes({0: 40, 1: 40, 2: 40, 3: 40}, 8) == 2
    # assign's [[0, 2], [1]]: 20 record-epochs against a bound of 15, so
    # exactly one batch of 5 over, or more than one batch of 4 over
    assert training_processes({0: 10, 1: 10, 2: 10}, 5) == 2
    assert training_processes({0: 10, 1: 10, 2: 10}, 4) == 3


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_many_uneven_clients_take_at_most_two_processes_per_core(monkeypatch, cores):
    force_cores(monkeypatch, cores)
    forks = count_forks(monkeypatch)
    rand = random.Random(cores)
    loads = {cid: rand.randint(1, 50) for cid in range(10_000)}
    # one more large client than cores: on more than one core, two of them
    # share a process, far over the bound
    loads.update({cid: 10**6 for cid in range(cores + 1)})
    n = training_processes(loads, 16)
    assert n <= 2 * cores
    assert n == (1 if cores == 1 else 2 * cores)
    assert forks == []


def run_until_training(monkeypatch, path, *overrides):
    """training_processes' answer for the config at `path` on 2 cores; the
    run stops there, before any helper is forked."""
    seen = []

    class Counted(Exception):
        pass

    def spy(*args):
        seen.append(training_processes(*args))
        raise Counted

    monkeypatch.setattr(federation, "training_processes", spy)
    force_cores(monkeypatch, 2)
    exp = load_experiment(path, list(overrides))
    with pytest.raises(Counted):
        federation.run_federated(exp.model, exp.lora, exp.fed, exp.data.load_records(),
                                 exp.data.partition, eval_frac=exp.data.eval_frac)
    return seen[0]


def test_real_configs_take_a_process_per_client_on_desk_and_ablation_k3_not_skew(
        monkeypatch, tmp_path):
    configs = REPO / "configs"
    assert run_until_training(monkeypatch, configs / "desk_federated.json") == 3
    assert run_until_training(monkeypatch, configs / "ablation_skew.json") == 3
    assert run_until_training(monkeypatch, configs / "ablation_skew.json", "fed.n_clients=1") == 1
    spec = importlib.util.spec_from_file_location("corpus", REPO / "perfbench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    csv_path = tmp_path / "skew0.csv"
    corpus.write_csv(csv_path, corpus.generate(0))
    source = json.dumps({"csv": str(csv_path)})
    assert run_until_training(monkeypatch, REPO / "perfbench" / "skew_long_csv.json",
                              f"data.source={source}") == 2


# runs on more processes than cores ------------------------------------------

@contextlib.contextmanager
def deadline(seconds=60):
    """TimeoutError in this process if the block hangs."""
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


def client_round(sizes):
    """Clients holding the first `sizes[cid]` of 24 records, E=1, B=8."""
    am, train = training_fixture()
    cfg = FedConfig(n_clients=len(sizes), rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    sets = {cid: EncodedSet(ids=train.ids[:n], labels=train.labels[:n])
            for cid, n in enumerate(sizes)}
    return GlobalState(theta=extract_trainable(am), model=am.clone()), sets, cfg, train


@pytest.mark.parametrize("sizes,n_helpers", [
    pytest.param((24,) * 3, 2, id="3-on-3"),
    pytest.param((24,) * 4, 3, id="4-on-4"),
    pytest.param((24, 24, 24, 16, 8), 4, id="uneven-5-on-5"),
    pytest.param((24, 8, 16), 5, id="more-helpers-than-clients"),
])
def test_a_round_on_every_process_equals_the_in_process_round_bit_for_bit(sizes, n_helpers):
    state, sets, cfg, eval_set = client_round(sizes)
    ref = GlobalState(theta=state.theta.copy(), model=state.model.clone())
    for _ in range(2):
        run_round_in_process(ref, sets, cfg, eval_set)
    with deadline(), Helpers(n_helpers, state.model, sets, cfg, eval_set) as helpers:
        for _ in range(2):
            run_round(state, sets, cfg, eval_set, helpers)
    assert state.theta.tobytes() == ref.theta.tobytes()
    assert [r.to_dict() | {"wall_time": 0} for r in state.history] == \
        [r.to_dict() | {"wall_time": 0} for r in ref.history]


def test_training_takes_a_process_per_client_and_eval_one_per_core(monkeypatch):
    # clients of 107/106/106 records (E=1, B=8) on 2 cores: 212 on one
    # process against a bound of 160, so training takes 3; eval's two
    # batches (100 records, 93 to a batch) take 2
    seen = count_groups(monkeypatch)
    forks = count_forks(monkeypatch)
    force_cores(monkeypatch, 2)
    fed = FedConfig(n_clients=3, rounds=2, local_epochs=1, eta=0.3, batch_size=8, seed=4)
    state = run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5), fed,
                          synth_corpus(500, seed=21), PartitionSpec(n_clients=3, seed=6),
                          eval_frac=0.2)
    assert seen == [2] + [3, 2] * 2
    assert len(forks) == 2 and state.processes == 3


def test_helpers_close_every_pipe_end_they_made():
    state, sets, cfg, eval_set = two_client_round()
    before = sorted(os.listdir("/proc/self/fd"))
    with deadline(), Helpers(3, state.model, sets, cfg, eval_set) as helpers:
        run_round(state, sets, cfg, eval_set, helpers)
        # a request end and a reply end per helper, and nothing else
        assert len(os.listdir("/proc/self/fd")) == len(before) + 3 * 2
    assert sorted(os.listdir("/proc/self/fd")) == before


COST_KEYS = ("cpu_s", "peak_rss_mb", "helper_peak_rss_mb", "minflt")


def run_files(monkeypatch, cores, argv):
    """The files `main(argv)` writes on `cores` cores, wall times, the cost
    record and the process count zeroed, and that process count."""
    force_cores(monkeypatch, cores)
    with deadline():
        assert main(argv) == 0
    out = Path(argv[argv.index("--output-dir") + 1])
    files = {name: (out / name).read_bytes() for name in RUN_FILES}
    files["rounds.jsonl"] = [{**json.loads(line), "wall_time": 0}
                             for line in files["rounds.jsonl"].splitlines()]
    summary = json.loads(files["summary.json"])
    files["summary.json"] = {**summary, "wall_time_s": 0, "processes": 0, **dict.fromkeys(COST_KEYS, 0)}
    return files, summary["processes"]


def test_three_equal_clients_on_two_cores_write_the_files_of_one(monkeypatch, tmp_path):
    fed = {"n_clients": 3, "rounds": 2, "local_epochs": 2, "eta": 0.3, "batch_size": 8, "seed": 2}
    data = {"source": {"synthetic": 150}, "seed": 3, "eval_frac": 0.2,
            "partition": {"n_clients": 3, "strategy": "iid", "seed": 4}}
    cfg, _ = write_config(tmp_path, fed=fed, data=data)
    one, processes1 = run_files(monkeypatch, 1, ["train-federated", cfg,
                                                 "--output-dir", str(tmp_path / "cores1")])
    two, processes2 = run_files(monkeypatch, 2, ["train-federated", cfg,
                                                 "--output-dir", str(tmp_path / "cores2")])
    # two clients on one of two cores would be a batch over the bound: a
    # process per client, three on two cores
    assert (processes1, processes2) == (1, 3)
    assert one == two


def test_desk_with_six_clients_on_four_cores_writes_the_files_of_one(monkeypatch, tmp_path):
    # 213/213/213/213/212/212 training records on 4 processes would put two
    # clients on each of two of them (850 record-epochs against a bound of
    # 638), so each client gets its own process: six on four cores
    argv = ["train-federated", str(REPO / "configs" / "desk_federated.json"),
            "--set", "fed.n_clients=6", "--set", "data.partition.n_clients=6",
            "--set", "fed.rounds=2", "--output-dir"]
    four, processes4 = run_files(monkeypatch, 4, argv + [str(tmp_path / "cores4")])
    one, processes1 = run_files(monkeypatch, 1, argv + [str(tmp_path / "cores1")])
    assert (processes4, processes1) == (6, 1)
    assert four == one


# each shipped config, shrunk to about a second, as --set can shrink it
SHIPPED_CONFIGS = {
    "quantity_skew": ["--set", "fed.rounds=2"],
    "minilm_like": ["--set", "fed.rounds=1", "--set", 'data.source={"synthetic": 600}'],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_writes_the_files_of_one_core_on_two_and_four(name, monkeypatch, tmp_path):
    argv = ["train-federated", str(REPO / "configs" / f"{name}.json"), *SHIPPED_CONFIGS[name],
            "--output-dir"]
    one, processes1 = run_files(monkeypatch, 1, argv + [str(tmp_path / "cores1")])
    assert processes1 == 1
    for cores in (2, 4):
        files, processes = run_files(monkeypatch, cores, argv + [str(tmp_path / f"cores{cores}")])
        assert processes > 1 and files == one


def test_summary_records_the_cost_of_a_run_and_its_helpers(monkeypatch, tmp_path):
    forks = count_forks(monkeypatch)
    force_cores(monkeypatch, 2)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with deadline():
        assert main(["train-federated", str(REPO / "configs" / "quantity_skew.json"),
                     "--set", "fed.rounds=1", "--output-dir", str(tmp_path)]) == 0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert forks
    for key in COST_KEYS:
        assert math.isfinite(summary[key]) and summary[key] > 0, key
    # the helpers were reaped inside main, so all of their CPU time is in cpu_s
    helpers_cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert summary["cpu_s"] >= helpers_cpu > 0
    assert summary["peak_rss_mb"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
