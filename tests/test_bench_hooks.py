"""The traced benchmark hooks fedlora by function name (`perfbench/child.py`),
so a rename there would silently empty its per-layer breakdown. Run one tiny
traced CLI run through it and check that the hooks still see the layers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fedlora

from test_cli import write_config

REPO = Path(__file__).resolve().parents[1]


def test_traced_bench_child_sees_encode_forward_and_tape(tmp_path):
    cfg, _ = write_config(tmp_path)
    out = tmp_path / "trace"
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(fedlora.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "perfbench/child.py", "trace", str(out),
                           "train-federated", cfg], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((out / "child.json").read_text(encoding="utf-8"))["trace"]
    names = {span[0] for span in trace["spans"]}
    assert {"model.encode", "model.forward_train", "model.forward_eval"} <= names
    assert trace["tape_nodes"] > 0
