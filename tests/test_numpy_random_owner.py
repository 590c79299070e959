"""`rng.np_generator` is the one code in `src/fedlora` that names NumPy's
random module, and only the label-skew Dirichlet calls it: the synthetic
corpus reads `rng.pcg64_raw`, so a set-up with an iid or quantity-skew
partition never imports `numpy.random`."""

import inspect
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


@pytest.mark.parametrize("config, imports", [
    ("desk_federated", False), ("centralized_baseline", False), ("quantity_skew", False),
    ("minilm_like", False), ("ablation_skew", True)])  # only ablation_skew is label skew
def test_only_a_label_skew_set_up_imports_numpy_random(config, imports):
    proc = subprocess.run([sys.executable, "-c", SET_UP, str(CONFIGS / f"{config}.json")],
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{imports}\n"
