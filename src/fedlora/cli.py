"""Command-line entry point: train-federated, train-centralized, ablate, report.

A training run writes its RUN_FILES only after its last round, all through
one `checkpoint.write_atomically`. This module alone builds what a run
writes. Each exit code and error message is listed in README's "Exit codes
and errors" table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import resource
import sys
import time

from . import checkpoint
from .config import load_experiment
from .data import save_csv
from .errors import ConfigError, FedLoraError, SchemaError
from .federation import check_population, run_centralized, run_federated
from .lora import trainable_param_count


RUN_FILES = ("rounds.jsonl", "summary.json", "adapters.bin", "base_model.bin", "vocab.txt")


def _usage():
    """getrusage of this process and of its reaped children (the helpers)."""
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def _cost(started) -> dict:
    """The run's own cost since `started`, a `_usage()`: CPU seconds (user plus
    system) and minor page faults of this process and its reaped helpers,
    and the peak RSS of this process and of its largest reaped child."""
    now = _usage()

    def spent(*names):
        return sum(getattr(end, name) - getattr(start, name)
                   for end, start in zip(now, started) for name in names)

    return {"cpu_s": spent("ru_utime", "ru_stime"), "minflt": spent("ru_minflt"),
            "peak_rss_mb": now[0].ru_maxrss / 1024, "helper_peak_rss_mb": now[1].ru_maxrss / 1024}


def _write_run_artifacts(out_dir: str, state, wall_time: float, started):
    """Write RUN_FILES into out_dir, all or none of them; summary.json's cost
    fields count from `started`, the `_usage()` taken when `main` began."""
    last = state.history[-1]  # run_* return only after all fed.rounds >= 1 rounds report
    n_trainable, breakdown = trainable_param_count(state.model)
    total_params = state.model.base.param_count()
    summary = {
        "rounds": len(state.history),
        "final_eval_accuracy": last.eval_accuracy,
        "final_eval_f1": last.eval_f1,
        "total_uplink_bytes": sum(r.uplink_bytes for r in state.history),
        "total_downlink_bytes": sum(r.downlink_bytes for r in state.history),
        "processes": state.processes,
        "trainable_params": n_trainable,
        "trainable_breakdown": breakdown,
        "total_params": total_params,
        "trainable_ratio": n_trainable / total_params,
        "wall_time_s": wall_time,
        **_cost(started),
    }
    os.makedirs(out_dir, exist_ok=True)
    with checkpoint.write_atomically(*(os.path.join(out_dir, name) for name in RUN_FILES)) as (
            rounds_path, summary_path, adapters_path, model_path, vocab_path):
        pathlib.Path(rounds_path).write_text(
            "".join(json.dumps(report.to_dict(), sort_keys=True) + "\n" for report in state.history),
            encoding="utf-8")
        pathlib.Path(summary_path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                              encoding="utf-8")
        checkpoint.save_adapters(adapters_path, state.model)
        checkpoint.save_model(model_path, state.model.base)
        checkpoint.save_vocab(vocab_path, state.vocab)
    return summary


def _output_dir(args, exp, names) -> str:
    """The run's output directory: --output-dir, else the config's. ConfigError
    if the path is empty, if it or the nearest of its parents that exists (a
    dangling symbolic link counts as existing) is not a directory,
    or if one of `names`, the files the command writes there, is a directory,
    so that no run trains first and then fails to write its artifacts."""
    out_dir = exp.output_dir if args.output_dir is None else args.output_dir
    if not out_dir:
        raise ConfigError("output directory is an empty path")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {out_dir} cannot be made: {path} is not a directory")
    for name in names:
        if os.path.isdir(os.path.join(out_dir, name)):
            raise ConfigError(f"output file {os.path.join(out_dir, name)} is a directory")
    return out_dir


def cmd_train(args) -> int:
    exp = load_experiment(args.config, args.set)
    kind = args.command.removeprefix("train-")
    if kind == "centralized" and exp.fed.n_clients != 1:
        print(f"warning: fed.n_clients={exp.fed.n_clients} is ignored for centralized training",
              file=sys.stderr)
    if kind == "federated":
        check_population(exp.fed, exp.data.partition)
    out_dir = _output_dir(args, exp, RUN_FILES)
    records = exp.data.load_records()
    t0 = time.perf_counter()
    if kind == "centralized":
        state = run_centralized(exp.model, exp.lora, exp.fed, records, eval_frac=exp.data.eval_frac)
    else:
        state = run_federated(exp.model, exp.lora, exp.fed, records, exp.data.partition,
                              eval_frac=exp.data.eval_frac)
    summary = _write_run_artifacts(out_dir, state, time.perf_counter() - t0, args.started)
    print(f"{kind} run complete: {state.round_idx} rounds, "
          f"accuracy {summary['final_eval_accuracy']:.4f}, "
          f"F1 {summary['final_eval_f1']:.4f} -> {out_dir}")
    return 0


def parse_grid(text: str):
    """Parse 'K,E,R;K,E,R;...' into (num_clients, client_epochs, rounds) triples,
    each value >= 1. A K above the partition population is left to the cell."""
    cells = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        try:
            k, e, r = map(int, chunk.split(","))
        except ValueError:  # a field count other than 3, or a field that is no integer
            raise ConfigError(f"grid cell {chunk!r} must be three integers K,E,R") from None
        if min(k, e, r) < 1:
            raise ConfigError(f"grid cell {chunk!r} must hold K, E and R >= 1")
        cells.append((k, e, r))
    if not cells:
        raise ConfigError("ablation grid is empty")
    return cells


def _ablation_row(exp, records, k: int, e: int, r: int) -> tuple:
    """One ablation.csv row: the (K, E, R) cell's final accuracy and F1, or its
    error. The cell's state is dropped on return, so the next cell's set-up
    does not run beside this cell's model."""
    fed = dataclasses.replace(exp.fed, n_clients=k, local_epochs=e, rounds=r)
    try:
        state = run_federated(exp.model, exp.lora, fed, records, exp.data.partition,
                              eval_frac=exp.data.eval_frac)
    except FedLoraError as exc:
        return (k, e, r, "", "", str(exc))
    last = state.history[-1]
    return (k, e, r, f"{last.eval_accuracy:.4f}", f"{last.eval_f1:.4f}", "")


def cmd_ablate(args) -> int:
    grid = parse_grid(args.grid)
    exp = load_experiment(args.config, args.set)
    out_dir = _output_dir(args, exp, ("ablation.csv",))
    records = exp.data.load_records()  # every cell trains on the same records
    rows = [_ablation_row(exp, records, *cell) for cell in grid]

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "ablation.csv")
    save_csv(csv_path, ["num_clients", "client_epochs", "global_epochs", "eval_accuracy",
                         "eval_f1", "error"], rows)

    header = f"{'Num Clients':>11}  {'Client Epochs':>13}  {'Global Epochs':>13}  {'Eval Accuracy':>13}  {'Eval F1':>8}"
    print(header)
    print("-" * len(header))
    for k, e, r, acc, f1, err in rows:
        result = f"{acc:>13}  {f1:>8}" if acc else f"failed: {err}"
        print(f"{k:>11}  {e:>13}  {r:>13}  {result}")
    print(f"table written to {csv_path}")
    return 0


REPORT_COLUMNS = ("round", "eval_accuracy", "eval_f1", "uplink_bytes", "downlink_bytes")


def _read_rounds(path) -> list[dict]:
    """The reports in a rounds.jsonl; SchemaError naming file:line for a line
    that is not a JSON object with a number in every REPORT_COLUMNS field."""
    reports = []
    with checkpoint.read_text(path, "round log", SchemaError) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rep = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{line_no} is not valid JSON: {exc}")
            if not (isinstance(rep, dict)
                    and all(type(rep.get(key)) in (int, float) for key in REPORT_COLUMNS)):
                raise SchemaError(f"{path}:{line_no} is not a round report: it needs a number "
                                  f"in each of {', '.join(REPORT_COLUMNS)}")
            reports.append(rep)
    return reports


def cmd_report(args) -> int:
    rounds_path = os.path.join(args.run_dir, "rounds.jsonl")
    if not os.path.exists(rounds_path):
        raise ConfigError(f"no rounds.jsonl in {args.run_dir}")
    if args.plot_csv == "":
        raise ConfigError(f"--plot-csv {args.plot_csv} is an empty path")
    if args.plot_csv and not os.path.isdir(os.path.dirname(args.plot_csv) or "."):
        raise ConfigError(f"--plot-csv {args.plot_csv} is not in an existing directory")
    if args.plot_csv and os.path.isdir(args.plot_csv):
        raise ConfigError(f"--plot-csv {args.plot_csv} is a directory")
    if args.plot_csv and os.path.realpath(args.plot_csv) in {
            os.path.realpath(os.path.join(args.run_dir, name)) for name in RUN_FILES}:
        raise ConfigError(f"--plot-csv {args.plot_csv} is one of the run's files")
    reports = _read_rounds(rounds_path)

    print(f"{'round':>5}  {'accuracy':>8}  {'F1':>8}  {'uplink B':>10}  {'downlink B':>10}")
    cum_up = cum_down = 0
    for rep in reports:
        cum_up += rep["uplink_bytes"]
        cum_down += rep["downlink_bytes"]
        print(f"{rep['round']:>5}  {rep['eval_accuracy']:>8.4f}  {rep['eval_f1']:>8.4f}  "
              f"{rep['uplink_bytes']:>10}  {rep['downlink_bytes']:>10}")
    print(f"total communication: {cum_up} bytes up, {cum_down} bytes down over {len(reports)} rounds")

    if args.plot_csv:
        save_csv(args.plot_csv, REPORT_COLUMNS, ([rep[key] for key in REPORT_COLUMNS]
                                                 for rep in reports))
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

    for name, help_text in (("train-federated", "run the federated pipeline"),
                            ("train-centralized", "run the single-client baseline")):
        p = sub.add_parser(name, help=help_text)
        add_run_args(p)
        p.set_defaults(func=cmd_train)

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
    started = _usage()
    args = build_parser().parse_args(argv)
    args.started = started
    try:
        return args.func(args)
    except (ConfigError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FedLoraError, OSError) as exc:  # OSError: e.g. a full disk while a run's files are written
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a corpus or vocabulary too large to allocate
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
