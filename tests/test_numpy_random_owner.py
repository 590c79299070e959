"""`rng` is the one owner of NumPy's randomness in `src/fedlora`:
`rng.np_generator` is the one code that names NumPy's random module, and
only a label-skew Dirichlet outside `rng.dirichlet`'s in-house range
(0.1 <= alpha < 1) calls it. The synthetic corpus's words (one
`rng.coin_then_pick` call) and the in-house Dirichlet read `rng.PCG64`, so a
set-up with an iid or quantity-skew partition, or a label skew with alpha
in that range, never imports `numpy.random`."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedlora import rng

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedlora"
CONFIGS = PACKAGE.parents[1] / "configs"
RANDOM_WORDS = ("np.random", "numpy.random")


def test_only_np_generator_names_numpy_random():
    owner = inspect.getsource(rng.np_generator)
    namers = [f"{path.name}: {word}" for path in sorted(PACKAGE.glob("*.py"))
              for word in RANDOM_WORDS
              if word in path.read_text(encoding="utf-8").replace(owner, "")]
    assert namers == []


SET_UP = """
import sys
from fedlora.config import load_experiment
from fedlora.data import make_shards
from fedlora.lora import attach_adapters
from fedlora.model import init_model
exp = load_experiment(sys.argv[1])
make_shards(exp.data.load_records(), exp.data.partition, exp.data.eval_frac)
attach_adapters(init_model(exp.model), exp.lora)
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("config, alpha, imports", [
    ("desk_federated", None, False), ("centralized_baseline", None, False),
    ("quantity_skew", None, False), ("minilm_like", None, False),
    ("ablation_skew", None, False),  # label skew at alpha 0.5
    ("ablation_skew", 0.05, True), ("ablation_skew", 0.1, False),
    ("ablation_skew", 0.99, False), ("ablation_skew", 1.0, True)])
def test_only_a_label_skew_set_up_imports_numpy_random(config, alpha, imports, tmp_path):
    path = CONFIGS / f"{config}.json"
    if alpha is not None:
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cfg["data"]["partition"]["alpha"] = alpha
        path = tmp_path / f"{config}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", SET_UP, str(path)],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{imports}\n"
