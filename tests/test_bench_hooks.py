"""The benchmark hooks fedlora by function name (`perfbench/child.py`), so a
rename there would silently empty its metrics or its per-layer breakdown. Run
one tiny CLI run through it in each mode and check what the hooks saw, and
apply `perfbench/run.py`'s own checks of the files the CLI wrote."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedlora
from fedlora import rng
from fedlora.config import load_experiment
from fedlora.data import make_shards, split_train_eval

from test_cli import write_config

REPO = Path(__file__).resolve().parents[1]


def run_child(tmp_path, mode: str, command: str = "train-federated", *extra: str) -> dict:
    """child.json of `perfbench/child.py MODE OUT COMMAND CONFIG EXTRA...` on
    write_config's tiny config, written to OUT = tmp_path / MODE."""
    cfg, _ = write_config(tmp_path)
    out = tmp_path / mode
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(fedlora.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "perfbench/child.py", mode, str(out),
                           command, cfg, *extra], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads((out / "child.json").read_text(encoding="utf-8"))


def test_traced_bench_child_sees_encode_forward_and_tape(tmp_path):
    trace = run_child(tmp_path, "trace")["trace"]
    names = {span[0] for span in trace["spans"]}
    assert {"model.encode", "model.forward_train", "model.forward_eval"} <= names
    assert trace["tape_nodes"] > 0


def test_bench_child_counts_rounds_and_samples_and_probes_set_up(tmp_path):
    exp = load_experiment(write_config(tmp_path)[0])
    pool, _ = split_train_eval(exp.data.load_records(), exp.data.eval_frac,
                               rng.derive(exp.fed.seed, "global_eval"))
    shards = make_shards(pool, exp.data.partition, exp.data.eval_frac)[:exp.fed.n_clients]
    per_round = exp.fed.local_epochs * sum(len(s.train) for s in shards)

    run = run_child(tmp_path, "run")
    assert run["exit_code"] == 0 and len(run["cells"]) == 1
    assert run["train_samples"] == exp.fed.rounds * per_round == 76
    assert run["round_loop_s"] > 0

    probe = run_child(tmp_path, "probe")
    assert probe["first_round_at"] is not None and probe["cells"] == []


def test_bench_child_writes_each_ablate_cells_checkpoints(tmp_path):
    # the bench saves each cell's state.model.base and state.model itself
    run = run_child(tmp_path, "run", "ablate", "--grid", "1,1,1;2,1,1")
    assert run["exit_code"] == 0 and len(run["cells"]) == 2
    for i in range(2):
        for name in ("base_model.bin", "adapters.bin"):
            assert (tmp_path / "run" / f"cell{i}" / name).stat().st_size > 0


def load_bench():
    """perfbench/run.py as a module, for its checks of a run."""
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.mark.parametrize("cli_args,n_cells", [(["train-federated"], 1),
                                               (["ablate", "--grid", "1,1,1;2,1,1"], 2)])
def test_bench_checks_pass_on_what_the_cli_writes(tmp_path, cli_args, n_cells):
    # as run.py spawns it: the CLI writes to OUT/cli, every cell returns, and
    # check_run compares the CLI's files (rounds.jsonl or ablation.csv) with the
    # returned states and reloads each final state's checkpoint
    out = tmp_path / "run"
    child = run_child(tmp_path, "run", cli_args[0], *cli_args[1:], "--output-dir", str(out / "cli"))
    run = {"mode": "run", "dir": str(out), "exit_code": 0, "completed": True, "child": child}
    bench = load_bench()
    assert len(child["cells"]) == n_cells
    assert bench.check_run(run, cli_args, bench.trajectory(child["cells"])) == []
