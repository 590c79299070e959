"""Command-line entry point.

Subcommands: train-federated, train-centralized, ablate, report.
Exit codes: 0 success, 1 runtime failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

from . import checkpoint
from .config import load_experiment
from .errors import ConfigError, FedLoraError, SchemaError
from .federation import run_centralized, run_federated
from .lora import trainable_param_count


def _write_run_artifacts(out_dir: str, state, wall_time: float):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rounds.jsonl"), "w", encoding="utf-8") as fh:
        for report in state.history:
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")

    n_trainable, breakdown = trainable_param_count(state.model)
    total_params = state.model.base.param_count()
    summary = {
        **state.summary(),
        "trainable_params": n_trainable,
        "trainable_breakdown": breakdown,
        "total_params": total_params,
        "trainable_ratio": n_trainable / total_params,
        "wall_time_s": wall_time,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    checkpoint.save_adapters(os.path.join(out_dir, "adapters.bin"), state.model)
    checkpoint.save_model(os.path.join(out_dir, "base_model.bin"), state.model.base)
    checkpoint.save_vocab(os.path.join(out_dir, "vocab.txt"), state.vocab)
    return summary


def cmd_train_federated(args) -> int:
    exp = load_experiment(args.config, args.set)
    records = exp.data.load_records()
    t0 = time.perf_counter()
    state = run_federated(exp.model, exp.lora, exp.fed, records, exp.data.partition,
                          eval_frac=exp.data.eval_frac)
    out_dir = args.output_dir or exp.output_dir
    summary = _write_run_artifacts(out_dir, state, time.perf_counter() - t0)
    print(f"federated run complete: {state.round_idx} rounds, "
          f"accuracy {summary['final_eval_accuracy']:.4f}, "
          f"F1 {summary['final_eval_f1']:.4f} -> {out_dir}")
    return 0


def cmd_train_centralized(args) -> int:
    exp = load_experiment(args.config, args.set)
    if exp.fed.n_clients != 1:
        print(f"warning: fed.n_clients={exp.fed.n_clients} is ignored for centralized training",
              file=sys.stderr)
    records = exp.data.load_records()
    t0 = time.perf_counter()
    state = run_centralized(exp.model, exp.lora, exp.fed, records,
                            eval_frac=exp.data.eval_frac)
    out_dir = args.output_dir or exp.output_dir
    summary = _write_run_artifacts(out_dir, state, time.perf_counter() - t0)
    print(f"centralized run complete: {state.round_idx} rounds, "
          f"accuracy {summary['final_eval_accuracy']:.4f}, "
          f"F1 {summary['final_eval_f1']:.4f} -> {out_dir}")
    return 0


def parse_grid(text: str):
    """Parse 'K,E,R;K,E,R;...' into (num_clients, client_epochs, rounds) triples."""
    cells = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ConfigError(f"grid cell {chunk!r} must be three integers K,E,R")
        try:
            cells.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ConfigError(f"grid cell {chunk!r} must be three integers K,E,R")
    if not cells:
        raise ConfigError("ablation grid is empty")
    return cells


def cmd_ablate(args) -> int:
    grid = parse_grid(args.grid)
    exp = load_experiment(args.config, args.set)
    rows = []
    for k, e, r in grid:
        cell_exp = dataclasses.replace(
            exp, fed=dataclasses.replace(exp.fed, n_clients=k, local_epochs=e, rounds=r))
        try:
            records = cell_exp.data.load_records()
            state = run_federated(cell_exp.model, cell_exp.lora, cell_exp.fed, records,
                                  cell_exp.data.partition, eval_frac=cell_exp.data.eval_frac)
            last = state.history[-1]
            rows.append((k, e, r, last.eval_accuracy, last.eval_f1, ""))
        except FedLoraError as exc:
            rows.append((k, e, r, None, None, str(exc)))

    out_dir = args.output_dir or exp.output_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "ablation.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["num_clients", "client_epochs", "global_epochs",
                         "eval_accuracy", "eval_f1", "error"])
        for k, e, r, acc, f1, err in rows:
            writer.writerow([k, e, r,
                             "" if acc is None else f"{acc:.4f}",
                             "" if f1 is None else f"{f1:.4f}", err])

    header = f"{'Num Clients':>11}  {'Client Epochs':>13}  {'Global Epochs':>13}  {'Eval Accuracy':>13}  {'Eval F1':>8}"
    print(header)
    print("-" * len(header))
    for k, e, r, acc, f1, err in rows:
        if acc is None:
            print(f"{k:>11}  {e:>13}  {r:>13}  {'failed: ' + err}")
        else:
            print(f"{k:>11}  {e:>13}  {r:>13}  {acc:>13.4f}  {f1:>8.4f}")
    print(f"table written to {csv_path}")
    return 0


def cmd_report(args) -> int:
    rounds_path = os.path.join(args.run_dir, "rounds.jsonl")
    if not os.path.exists(rounds_path):
        raise ConfigError(f"no rounds.jsonl in {args.run_dir}")
    reports = []
    with open(rounds_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                reports.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{rounds_path}:{line_no} is not valid JSON: {exc}")

    print(f"{'round':>5}  {'accuracy':>8}  {'F1':>8}  {'uplink B':>10}  {'downlink B':>10}")
    cum_up = cum_down = 0
    for rep in reports:
        cum_up += rep["uplink_bytes"]
        cum_down += rep["downlink_bytes"]
        print(f"{rep['round']:>5}  {rep['eval_accuracy']:>8.4f}  {rep['eval_f1']:>8.4f}  "
              f"{rep['uplink_bytes']:>10}  {rep['downlink_bytes']:>10}")
    print(f"total communication: {cum_up} bytes up, {cum_down} bytes down over {len(reports)} rounds")

    if args.plot_csv:
        with open(args.plot_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "eval_accuracy", "eval_f1", "uplink_bytes", "downlink_bytes"])
            for rep in reports:
                writer.writerow([rep["round"], rep["eval_accuracy"], rep["eval_f1"],
                                 rep["uplink_bytes"], rep["downlink_bytes"]])
        print(f"plot data written to {args.plot_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlora",
        description="Desk-scale federated LoRA fine-tuning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p):
        p.add_argument("config", help="experiment config JSON file")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override a config leaf, e.g. fed.eta=0.1")
        p.add_argument("--output-dir", help="override the config's output_dir")

    p = sub.add_parser("train-federated", help="run the federated pipeline")
    add_run_args(p)
    p.set_defaults(func=cmd_train_federated)

    p = sub.add_parser("train-centralized", help="run the single-client baseline")
    add_run_args(p)
    p.set_defaults(func=cmd_train_centralized)

    p = sub.add_parser("ablate", help="run a (K, E, R) ablation grid")
    add_run_args(p)
    p.add_argument("--grid", default="1,3,10;1,10,3;3,10,3",
                   help="semicolon-separated K,E,R triples")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run_dir")
    p.add_argument("--plot-csv", help="export round-vs-metric CSV for plotting")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FedLoraError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
