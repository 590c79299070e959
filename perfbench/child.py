"""One benchmark run in a fresh process: hook fedlora from outside, run its CLI,
and dump what the hooks saw.

    python3 perfbench/child.py MODE OUT_DIR CLI_ARG...

MODE is one of
  run    light hooks only (round boundaries and the final states), for the
         end-to-end metrics;
  probe  stop the process as soon as the first round starts, to time set-up;
  trace  also wrap the public functions of data, model, lora, autodiff,
         federation and checkpoint: spans down to per-batch forward and
         backward, and per-op-kind counters (counters, not spans, because a
         run records about a million tape nodes).

The hooks replace a function object wherever a fedlora module refers to it,
so `from .model import forward` style imports are caught too. They only
observe: a traced run must end with the same bits as an untraced one, which
the parent checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from time import perf_counter

import numpy as np

OP_KINDS = ("matmul", "add", "scale", "relu", "transpose", "slice_cols", "slice_rows",
            "concat_cols", "concat_rows", "gather_rows", "softmax_rows", "layer_norm",
            "cross_entropy")


def replace_everywhere(owner, name: str, make):
    """Swap owner.name for make(original) in every fedlora module namespace."""
    original = getattr(owner, name)
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fedlora" or mod_name.startswith("fedlora."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


class Rounds:
    """Round boundaries, trained-sample counts and the final federated states."""

    def __init__(self, out_dir: str, probe: bool):
        self.out_dir = out_dir
        self.probe = probe
        self.first_round_at = None  # time.monotonic(), comparable with the parent's clock
        self.round_loop_s = 0.0
        self.train_samples = 0
        self.states = []

    def install(self, federation):
        replace_everywhere(federation, "run_round", self._wrap_round)
        replace_everywhere(federation, "run_federated", self._wrap_federated)

    def _wrap_round(self, run_round):
        def wrapper(state, client_sets, cfg, global_eval, *args, **kwargs):
            if self.first_round_at is None:
                self.first_round_at = time.monotonic()
                if self.probe:
                    self.dump({})
                    os._exit(0)
            t0 = perf_counter()
            out = run_round(state, client_sets, cfg, global_eval, *args, **kwargs)
            self.round_loop_s += perf_counter() - t0
            losses = state.history[-1].client_losses
            self.train_samples += cfg.local_epochs * sum(
                len(client_sets[cid]) for cid, loss in losses.items() if loss is not None)
            return out
        return wrapper

    def _wrap_federated(self, run_federated):
        def wrapper(*args, **kwargs):
            state = run_federated(*args, **kwargs)
            self.states.append(state)
            return state
        return wrapper

    def dump(self, extra: dict):
        cells = []
        for i, state in enumerate(self.states):
            theta_path = os.path.join(self.out_dir, f"theta{i}.npy")
            np.save(theta_path, state.theta)
            cells.append({"theta": theta_path,
                          "history": [r.to_dict() for r in state.history]})
        doc = {
            "first_round_at": self.first_round_at,
            "round_loop_s": self.round_loop_s,
            "train_samples": self.train_samples,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "cells": cells,
            **extra,
        }
        with open(os.path.join(self.out_dir, "child.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class Tracer:
    """Spans at layer boundaries plus aggregated autodiff counters."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = [-1]
        self.kind = -1
        n = len(OP_KINDS)
        self.op_calls, self.op_fwd_s, self.op_bwd_s = [0] * n, [0.0] * n, [0.0] * n
        self.tape_nodes = 0
        self.accumulations = 0
        self.accumulations_dropped = 0
        self.checkpoint_bytes = 0

    def span(self, name, fn, name_fn=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            label = name_fn() if name_fn else name
            spans.append([label, stack[-1], perf_counter(), None])
            idx = len(spans) - 1
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
        return wrapper

    def _forward_name(self):
        parent = self.stack[-1]
        in_eval = parent >= 0 and self.spans[parent][0] == "federation.evaluate"
        return "model.forward_eval" if in_eval else "model.forward_train"

    def _op(self, k, fn):
        def wrapper(*args, **kwargs):
            prev, self.kind = self.kind, k
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_fwd_s[k] += perf_counter() - t0
                self.op_calls[k] += 1
                self.kind = prev
        return wrapper

    def _record(self, record):
        bwd_s = self.op_bwd_s

        def wrapper(graph, out, backward_fn):
            self.tape_nodes += 1
            k = self.kind

            def timed(grad_out):
                t0 = perf_counter()
                backward_fn(grad_out)
                bwd_s[k] += perf_counter() - t0
            return record(graph, out, timed)
        return wrapper

    def _accumulate(self, accumulate):
        def wrapper(graph, t, delta):
            accumulate(graph, t, delta)
            self.accumulations += 1
            if t.grad is None:  # frozen leaf: the delta was computed and dropped
                self.accumulations_dropped += 1
        return wrapper

    def _save(self, name, fn):
        timed = self.span(name, fn)

        def wrapper(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            self.checkpoint_bytes += os.path.getsize(path)
            return out
        return wrapper

    def install(self):
        from fedlora import autodiff, checkpoint, cli, data, federation, lora, model

        for k, kind in enumerate(OP_KINDS):
            replace_everywhere(autodiff, kind, lambda fn, k=k: self._op(k, fn))
        replace_everywhere(autodiff.Graph, "record", self._record)
        replace_everywhere(autodiff.Graph, "accumulate", self._accumulate)
        replace_everywhere(autodiff.Graph, "backward", lambda fn: self.span("autodiff.backward", fn))
        replace_everywhere(model, "forward", lambda fn: self.span(None, fn, self._forward_name))
        spans = [
            (cli, "main", "cli.main"),
            (data, "load_corpus", "data.load"),
            (data, "synth_corpus", "data.load"),
            (data, "make_shards", "data.partition"),
            (model, "build_vocab", "model.vocab"),
            (federation, "encode_records", "model.encode"),
            (model, "init_model", "model.init"),
            (lora, "attach_adapters", "lora.attach"),
            (lora.AdaptedModel, "clone", "lora.clone"),
            (lora, "load_trainable", "lora.load_trainable"),
            (lora, "extract_trainable", "lora.extract_trainable"),
            (federation, "run_round", "federation.round"),
            (federation, "client_update", "federation.client_update"),
            (federation, "fedavg", "federation.fedavg"),
            (federation, "evaluate", "federation.evaluate"),
        ]
        for owner, attr, name in spans:
            replace_everywhere(owner, attr, lambda fn, name=name: self.span(name, fn))
        for attr in ("save_model", "save_adapters", "save_vocab"):
            replace_everywhere(checkpoint, attr, lambda fn: self._save("checkpoint.save", fn))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "ops": {kind: {"calls": self.op_calls[k], "fwd_s": self.op_fwd_s[k], "bwd_s": self.op_bwd_s[k]}
                    for k, kind in enumerate(OP_KINDS)},
            "tape_nodes": self.tape_nodes,
            "accumulations": self.accumulations,
            "accumulations_dropped": self.accumulations_dropped,
            "checkpoint_bytes": self.checkpoint_bytes,
        }


def save_cell_checkpoints(rounds: Rounds):
    """`ablate` writes no checkpoints; write each cell's so the round trip is checked."""
    from fedlora import checkpoint

    for i, state in enumerate(rounds.states):
        cell_dir = os.path.join(rounds.out_dir, f"cell{i}")
        os.makedirs(cell_dir, exist_ok=True)
        checkpoint.save_model(os.path.join(cell_dir, "base_model.bin"), state.model.base)
        checkpoint.save_adapters(os.path.join(cell_dir, "adapters.bin"), state.model)


def main(argv) -> int:
    mode, out_dir, cli_args = argv[0], argv[1], argv[2:]
    from fedlora import cli, federation

    rounds = Rounds(out_dir, probe=mode == "probe")
    tracer = Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    rounds.install(federation)
    code = cli.main(cli_args)
    if cli_args[0] == "ablate":
        save_cell_checkpoints(rounds)
    rounds.dump({"exit_code": code, "trace": tracer.dump() if tracer else None})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
