"""`fedlora ablate` builds one frozen base per grid, and every cell adapts it
through `run_federated(..., base=base)`: each cell's model wraps that one
object, no cell writes into it, and each cell trains exactly as a standalone
run that builds its own base."""

import pytest

from fedlora import cli, federation
from fedlora.cli import main
from fedlora.config import load_experiment
from fedlora.data import PartitionSpec, synth_corpus
from fedlora.errors import ProtocolError
from fedlora.federation import FedConfig, run_federated
from fedlora.lora import LoraConfig
from fedlora.model import ModelConfig, init_model

from test_cli import TINY_DOC, write_config
from test_federation import DESK_MODEL
from test_workers import count_forks, force_cores


def without_wall_time(state):
    return [r.to_dict() | {"wall_time": 0} for r in state.history]


def test_ablate_cells_adapt_one_base_that_none_writes_and_train_as_standalone_runs(
        tmp_path, monkeypatch):
    force_cores(monkeypatch, 2)  # so the K=2 cells fork a helper
    bases, cells = [], []

    def spy_init(cfg):
        bases.append(init_model(cfg))
        return bases[-1]

    def keep_cell(*args, **kwargs):
        cells.append((args, kwargs, run_federated(*args, **kwargs)))
        return cells[-1][2]

    for module in (cli, federation):
        monkeypatch.setattr(module, "init_model", spy_init)
    monkeypatch.setattr(cli, "run_federated", keep_cell)
    cfg, out = write_config(tmp_path, fed={**TINY_DOC["fed"], "eta": 0.5})
    assert main(["ablate", cfg, "--grid", "1,2,2;2,1,2;2,2,1"]) == 0
    assert len(bases) == 1 and len(cells) == 3
    base = bases[0]
    assert all(state.model.base is base for _, _, state in cells)
    # the cells trained their own adapters and heads, never the base's arrays
    fresh = init_model(load_experiment(cfg).model)
    assert [p.data.tobytes() for p in base.parameters()] == \
        [p.data.tobytes() for p in fresh.parameters()]
    assert len({id(state.model.head_w) for _, _, state in cells} | {id(base.head_w)}) == 4

    for args, kwargs, state in cells:
        assert kwargs.pop("base") is base
        alone = run_federated(*args, **kwargs)
        assert alone.model.base is not base
        assert state.theta.tobytes() == alone.theta.tobytes()
        assert without_wall_time(state) == without_wall_time(alone)
    assert len(bases) == 4  # each standalone run built its own


@pytest.mark.parametrize("field", ["seed", "d_model", "vocab_size"])
def test_a_base_built_for_another_model_config_raises_before_any_split_or_fork(
        monkeypatch, field):
    forks = count_forks(monkeypatch)
    splits = []
    monkeypatch.setattr(federation, "phase_processes", lambda *args: splits.append(args))
    model_cfg = ModelConfig(**DESK_MODEL)
    other = ModelConfig(**{**DESK_MODEL, field: 2 * DESK_MODEL[field]})
    fed = FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=4)
    with pytest.raises(ProtocolError, match="another model config"):
        run_federated(model_cfg, LoraConfig(rank=2, seed=5), fed, synth_corpus(60, seed=21),
                      PartitionSpec(n_clients=2, seed=6), base=init_model(other))
    assert forks == [] and splits == []
