"""Outside-in benchmark for fedlora.

Each measured run is one `fedlora` CLI invocation (`train-federated` or
`ablate`, through `fedlora.cli.main`) in a fresh process, spawned by this
script and hooked from outside by perfbench/child.py. Nothing under src/,
tests/ or configs/ is touched.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
    python3 perfbench/run.py --compare OLD.json NEW.json
    python3 perfbench/run.py --record-reference

Untraced (`--trace 0`): whole CLI runs back to back until the next one would
end after `--seconds` (at least one), then set-up probes, which stop at the
start of the first round. Prints every end-to-end metric of BENCHMARK.json.

Traced (`--trace 1`): one untraced run, then one traced run of the same
inputs. Prints every per-layer metric of BENCHMARK.json, with the tracing
overhead as a share of the untraced run_s.

Every run is checked: exit code 0; per-round client losses and eval F1
against perfbench/reference.json; the checkpoint written for each final
state loads back to the same trainable vector, bit for bit; and, when
traced, the final vectors equal the untraced run's, bit for bit. The last
stdout line is the JSON result; the full record, with the machine it ran on,
is written under .bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402  (sits beside this file)
from child import OP_KINDS  # noqa: E402

BLAS_THREADS = "1"
N_PROBES = 6
N_CORPORA = 10  # skew_long_csv: --seed picks corpus seed % N_CORPORA
DEADLINE_S = 165  # a run of this script ends well inside 180 s
LOSS_RTOL = 1e-6  # passes reduction-order drift (ROADMAP: new paths match to 1e-12)
F1_ATOL = 1e-9  # F1 only moves if a prediction flips
ABLATE_GRID = "1,3,10;1,10,3;3,10,3"


# ---------------------------------------------------------------------------
# workloads


def desk_federated(seed, work_dir):
    return ["train-federated", "configs/desk_federated.json"], "default", None


def skew_long_csv(seed, work_dir):
    k = seed % N_CORPORA
    rows = corpus.generate(k)
    max_seq_len = json.loads((BENCH / "skew_long_csv.json").read_text())["model"]["max_seq_len"]
    stats = {"corpus_seed": k, "max_seq_len": max_seq_len, **corpus.stats(rows, max_seq_len)}
    path = work_dir / f"skew_long_csv-{k}.csv"
    corpus.write_csv(path, rows)
    source = json.dumps({"csv": str(path.relative_to(ROOT))})
    return (["train-federated", "perfbench/skew_long_csv.json", "--set", f"data.source={source}"],
            f"corpus{k}", stats)


def ablate_skew(seed, work_dir):
    return ["ablate", "configs/ablation_skew.json", "--grid", ABLATE_GRID], "default", None


WORKLOADS = {"desk_federated": desk_federated, "skew_long_csv": skew_long_csv,
             "ablate_skew": ablate_skew}


# ---------------------------------------------------------------------------
# machine record


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS  # this process tree only; no machine setting changes
    env["PYTHONHASHSEED"] = "0"
    return env


# ---------------------------------------------------------------------------
# one CLI run in a fresh process


def spawn(mode: str, cli_args, run_dir: Path, deadline: float) -> dict:
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(run_dir),
            *cli_args, "--output-dir", str(run_dir / "cli")]
    run = {"mode": mode, "dir": str(run_dir), "load_before": os.getloadavg()}
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        run["timed_out"] = True
    run["run_s"] = time.monotonic() - spawned_at
    run["load_after"] = os.getloadavg()
    run["exit_code"] = proc.returncode
    run["stderr_tail"] = err.decode("utf-8", "replace")[-2000:]
    doc_path = run_dir / "child.json"
    run["child"] = json.loads(doc_path.read_text()) if doc_path.exists() else None
    run["setup_s"] = None
    if run["child"] and run["child"]["first_round_at"] is not None:
        run["setup_s"] = run["child"]["first_round_at"] - spawned_at
    run["completed"] = (proc.returncode == 0 and not run.get("timed_out")
                        and run["setup_s"] is not None)
    return run


# ---------------------------------------------------------------------------
# correctness


def trajectory(cells) -> list:
    """Per cell: client losses per round (client-id order) and eval F1 per round."""
    out = []
    for cell in cells:
        hist = cell["history"]
        out.append({
            "client_losses": [[r["client_losses"][k] for k in sorted(r["client_losses"], key=int)]
                              for r in hist],
            "eval_f1": [r["eval_f1"] for r in hist],
        })
    return out


def compare_trajectory(got, ref) -> list:
    if len(got) != len(ref):
        return [f"{len(got)} federated runs, reference has {len(ref)}"]
    for c, (g, r) in enumerate(zip(got, ref)):
        if len(g["eval_f1"]) != len(r["eval_f1"]):
            return [f"cell {c}: {len(g['eval_f1'])} rounds, reference has {len(r['eval_f1'])}"]
        for rnd, (gl, rl) in enumerate(zip(g["client_losses"], r["client_losses"])):
            if len(gl) != len(rl):
                return [f"cell {c} round {rnd}: {len(gl)} clients, reference has {len(rl)}"]
            for cid, (a, b) in enumerate(zip(gl, rl)):
                if (a is None) != (b is None) or (a is not None and not math.isclose(a, b, rel_tol=LOSS_RTOL)):
                    return [f"cell {c} round {rnd} client {cid}: loss {a!r}, reference {b!r}"]
        for rnd, (a, b) in enumerate(zip(g["eval_f1"], r["eval_f1"])):
            if not math.isclose(a, b, rel_tol=0.0, abs_tol=F1_ATOL):
                return [f"cell {c} round {rnd}: eval F1 {a!r}, reference {b!r}"]
    return []


def checkpoint_dirs(run, cli_args) -> list:
    """train-federated writes its own checkpoint; for ablate, child.py wrote one per cell."""
    if cli_args[0] != "ablate":
        return [Path(run["dir"]) / "cli"]
    return [Path(run["dir"]) / f"cell{i}" for i in range(len(run["child"]["cells"]))]


def check_program_outputs(run, cli_args) -> list:
    """The files the CLI itself wrote agree with the states it returned."""
    cli_dir = Path(run["dir"]) / "cli"
    cells = run["child"]["cells"]
    if cli_args[0] == "ablate":
        with open(cli_dir / "ablation.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        written = [row["eval_f1"] for row in rows]
        expected = [f"{cell['history'][-1]['eval_f1']:.4f}" for cell in cells]
        return [] if written == expected else [f"ablation.csv F1 {written}, states say {expected}"]
    lines = (cli_dir / "rounds.jsonl").read_text().splitlines()
    written = [(r["client_losses"], r["eval_f1"]) for r in map(json.loads, lines)]
    expected = [(r["client_losses"], r["eval_f1"]) for r in cells[0]["history"]]
    return [] if written == expected else ["rounds.jsonl differs from the returned history"]


def check_run(run, cli_args, reference) -> list:
    if run.get("timed_out"):
        return ["timed out"]
    if run["exit_code"] != 0:
        return [f"exit code {run['exit_code']}: {run['stderr_tail'].strip()[-300:]}"]
    if not run["completed"]:
        return ["no record from the run process"]
    if run["mode"] == "probe":
        return []
    cells = run["child"]["cells"]
    problems = compare_trajectory(trajectory(cells), reference)
    problems += check_program_outputs(run, cli_args)
    from fedlora import checkpoint, lora

    for cell, ckpt_dir in zip(cells, checkpoint_dirs(run, cli_args)):
        theta = np.load(cell["theta"])
        am = checkpoint.load_adapters(ckpt_dir / "adapters.bin",
                                      checkpoint.load_model(ckpt_dir / "base_model.bin"))
        if lora.extract_trainable(am).tobytes() != theta.tobytes():
            problems.append(f"checkpoint in {ckpt_dir.name} does not reload the final vector")
    return problems


def thetas_equal(a, b) -> bool:
    ca, cb = a["child"]["cells"], b["child"]["cells"]
    return len(ca) == len(cb) and all(
        np.load(x["theta"]).tobytes() == np.load(y["theta"]).tobytes() for x, y in zip(ca, cb))


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(runs, probes) -> dict:
    full = [r for r in runs if r["completed"]]
    setups = [r["setup_s"] for r in full + probes if r["completed"]]
    first = full[0]["child"]
    last_f1 = [cell["history"][-1]["eval_f1"] for cell in first["cells"]]
    rounds = [r for cell in first["cells"] for r in cell["history"]]
    return {
        "run_s": statistics.median(r["run_s"] for r in full),
        "setup_s": statistics.median(setups),
        "train_samples_per_s": statistics.median(
            r["child"]["train_samples"] / r["child"]["round_loop_s"] for r in full),
        "peak_rss_mb": statistics.median(r["child"]["maxrss_kb"] / 1024 for r in full),
        "final_eval_f1": statistics.fmean(last_f1),
        "wire_bytes_per_round": statistics.fmean(r["uplink_bytes"] + r["downlink_bytes"] for r in rounds),
    }


def per_layer_metrics(plain, traced) -> dict:
    tr = traced["child"]["trace"]
    spans = tr["spans"]
    durations = defaultdict(list)
    for name, _, t0, t1 in spans:
        durations[name].append(t1 - t0)

    def total(name):
        return sum(durations[name])

    def mean_ms(name):
        return 1000 * statistics.fmean(durations[name])

    straggler = []
    children = defaultdict(list)
    for name, parent, t0, t1 in spans:
        if name == "federation.client_update":
            children[parent].append(t1 - t0)
    for times in children.values():
        straggler.append(max(times) / statistics.fmean(times))

    n_batches = len(durations["autodiff.backward"])
    m = {
        "autodiff.backward_ms_per_batch": mean_ms("autodiff.backward"),
        "autodiff.tape_nodes_per_batch": tr["tape_nodes"] / n_batches,
        "autodiff.grad_useful_ratio": 1 - tr["accumulations_dropped"] / tr["accumulations"],
    }
    for kind in OP_KINDS:
        for key in ("calls", "fwd_s", "bwd_s"):
            m[f"autodiff.op.{kind}.{key}"] = tr["ops"][kind][key]
    m.update({
        "model.forward_train_ms_per_batch": mean_ms("model.forward_train"),
        "model.forward_eval_ms_per_batch": mean_ms("model.forward_eval"),
        "model.vocab_s": total("model.vocab"),
        "model.encode_s": total("model.encode"),
        "model.init_s": total("model.init"),
    })
    for name in ("clone", "load_trainable", "extract_trainable"):
        m[f"lora.{name}.calls"] = len(durations[f"lora.{name}"])
        m[f"lora.{name}.s"] = total(f"lora.{name}")
    m["lora.attach_s"] = total("lora.attach")
    rounds = [r for cell in traced["child"]["cells"] for r in cell["history"]]
    m.update({
        "federation.client_update_s": total("federation.client_update"),
        "federation.evaluate_s": total("federation.evaluate"),
        "federation.fedavg_s": total("federation.fedavg"),
        "federation.round_s_p50": statistics.median(durations["federation.round"]),
        "federation.client_update.max_over_mean": statistics.median(straggler),
        "federation.clients_skipped": sum(v is None for r in rounds for v in r["client_losses"].values()),
        "data.load_s": total("data.load"),
        "data.partition_s": total("data.partition"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes": tr["checkpoint_bytes"],
        "trace.overhead_frac": traced["run_s"] / plain["run_s"] - 1,
    })
    return m


# ---------------------------------------------------------------------------
# one workload


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    work_dir = OUT / "runs" / name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cli_args, ref_key, inputs = WORKLOADS[name](seed, work_dir)
    reference = load_reference().get(name, {}).get(ref_key)
    if reference is None:
        raise SystemExit(f"no reference trajectory for {name}/{ref_key} in {REFERENCE}")

    def go(mode, tag):
        run = spawn(mode, cli_args, work_dir / tag, deadline)
        run["problems"] = check_run(run, cli_args, reference)
        return run

    runs, probes = [], []
    measure_start = time.monotonic()
    if trace:
        runs = [go("run", "plain"), go("trace", "traced")]
        if not runs[0]["problems"] and not runs[1]["problems"] and not thetas_equal(*runs):
            runs[1]["problems"].append("traced final vector differs from the untraced run's")
    else:
        while True:
            runs.append(go("run", f"run{len(runs)}"))
            now = time.monotonic()
            if now - measure_start + runs[-1]["run_s"] > seconds or now + runs[-1]["run_s"] > deadline - 10:
                break
        for i in range(N_PROBES):
            if time.monotonic() + 5 > deadline:
                break
            probes.append(go("probe", f"probe{i}"))

    everything = runs + probes
    failed = [r for r in everything if r["problems"]]
    if trace:
        ok = all(r["completed"] for r in runs)
        metrics = per_layer_metrics(*runs) if ok else {}
        wanted = spec["per_layer"]
    else:
        ok = any(r["completed"] for r in runs)
        metrics = end_to_end_metrics(runs, probes) if ok else {}
        wanted = spec["end_to_end"]
    result = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "machine": machine_record(), "inputs": inputs,
        "correct": not failed, "attempted": len(everything), "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted} if ok else {},
        "runs": [{k: r.get(k) for k in ("mode", "run_s", "setup_s", "exit_code", "load_before",
                                          "load_after", "problems")} for r in everything],
        "wall_s": time.monotonic() - started,
    }
    return result


def print_result(result: dict):
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({result['attempted']} runs, {result['failed']} failed, {result['wall_s']:.1f} s)")
    print("   machine: " + json.dumps(result["machine"], sort_keys=True))
    if result["inputs"]:
        print("   inputs: " + json.dumps(result["inputs"], sort_keys=True))
    for r in result["runs"]:
        setup = "" if r["setup_s"] is None else f"  setup {r['setup_s']:.3f} s"
        print(f"   {r['mode']:<5} {r['run_s']:8.3f} s{setup}  load {r['load_before'][0]:.2f}->"
              f"{r['load_after'][0]:.2f}" + "".join(f"\n   FAILED: {p}" for p in r["problems"]))
    for name, m in result["metrics"].items():
        print(f"   {name:<44} {m['value']:>16.6g} {m['unit']}")


def save_result(doc: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# compare, reference


def compare(old_path: str, new_path: str, spec: dict):
    """Report each metric's change per workload; flag moves beyond the bound."""
    def workloads(path):
        doc = json.loads(Path(path).read_text())
        return doc["workloads"] if "workloads" in doc else {doc["workload"]: doc}

    old, new = workloads(old_path), workloads(new_path)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for name in [w for w in old if w in new]:
        print(f"== {name}")
        for metric, o in old[name]["metrics"].items():
            if metric not in new[name]["metrics"]:
                continue
            a, b = o["value"], new[name]["metrics"][metric]["value"]
            change = (b - a) / abs(a) if a else (0.0 if b == a else math.inf)
            m = bounds.get(metric, {})
            worse = change if m.get("better") == "lower" else -change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = f"  REGRESSION (bound {m['bound']:.0%})"
                flagged += 1
            print(f"   {metric:<44} {a:>14.6g} -> {b:<14.6g} {change:+8.2%}{flag}")
    print(f"{flagged} metric(s) beyond their bound (report only)")


def record_reference():
    """Rewrite reference.json from untraced runs of the current program."""
    ref = {}
    for name, make in WORKLOADS.items():
        seeds = range(N_CORPORA) if name == "skew_long_csv" else [0]
        for seed in seeds:
            work_dir = OUT / "reference" / name
            work_dir.mkdir(parents=True, exist_ok=True)
            cli_args, key, _ = make(seed, work_dir)
            run = spawn("run", cli_args, work_dir / key, time.monotonic() + 600)
            if run["exit_code"] != 0 or run["child"] is None:
                raise SystemExit(f"{name}/{key} failed: {run['stderr_tail']}")
            ref.setdefault(name, {})[key] = trajectory(run["child"]["cells"])
            print(f"{name}/{key}: {run['run_s']:.1f} s", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--workload", choices=sorted(WORKLOADS))
    action.add_argument("--all", action="store_true", help="every workload, one after another")
    action.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    action.add_argument("--record-reference", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file (default under .bench_out/results/)")
    args = p.parse_args(argv)

    spec = load_spec()
    if args.compare:
        compare(*args.compare, spec)
        return 0
    if not (ROOT / "src" / "fedlora" / "cli.py").is_file():
        print(f"error: no fedlora sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_reference:
        record_reference()
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, seconds, bool(args.trace), spec)
        print_result(results[name])
        if not results[name]["metrics"]:
            print(f"error: no run of {name} finished cleanly", file=sys.stderr)
            return 1
    tag = f"seed{args.seed}-trace{args.trace}"
    if args.all:
        out = Path(args.out) if args.out else OUT / "results" / f"all-{tag}.json"
        save_result({"machine": machine_record(), "workloads": results}, out)
        print(f"results written to {out}")
        return 0
    result = results[args.workload]
    save_result(result, Path(args.out) if args.out else OUT / "results" / f"{args.workload}-{tag}.json")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
