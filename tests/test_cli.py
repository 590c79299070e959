import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedlora
from fedlora import checkpoint, cli, config
from fedlora.cli import RUN_FILES, main, parse_grid
from fedlora.config import load_experiment
from fedlora.data import load_corpus, save_corpus, synth_corpus
from fedlora.errors import ConfigError
from fedlora.federation import run_federated, usable_cores

TINY_DOC = {
    "model": {"vocab_size": 200, "d_model": 8, "n_heads": 2, "n_layers": 1,
              "ff_dim": 16, "max_seq_len": 12, "n_classes": 2, "seed": 0},
    "lora": {"rank": 2, "targets": ["q", "v"], "seed": 1},
    "fed": {"n_clients": 2, "rounds": 2, "local_epochs": 1, "eta": 0.3,
            "batch_size": 8, "seed": 2},
    "data": {"source": {"synthetic": 60}, "seed": 3, "eval_frac": 0.2,
             "partition": {"n_clients": 2, "strategy": "iid", "seed": 4}},
}


def write_config(tmp_path, **patches):
    doc = json.loads(json.dumps(TINY_DOC))
    doc.update(patches)
    doc.setdefault("output_dir", str(tmp_path / "run"))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), doc["output_dir"]


def read_summary(out_dir):
    with open(f"{out_dir}/summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_train_federated_writes_artifacts(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 0
    lines = open(f"{out}/rounds.jsonl", encoding="utf-8").read().splitlines()
    assert len(lines) == 2
    summary = read_summary(out)
    assert summary["rounds"] == 2
    assert 0.0 <= summary["final_eval_f1"] <= 1.0
    assert summary["trainable_ratio"] < 0.5
    for name in ("adapters.bin", "base_model.bin", "vocab.txt"):
        assert (tmp_path / "run" / name).exists()


def test_rerun_is_deterministic(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["train-federated", cfg])
    first = read_summary(out)
    main(["train-federated", cfg])
    second = read_summary(out)
    for key in ("final_eval_accuracy", "final_eval_f1", "total_uplink_bytes"):
        assert first[key] == second[key]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_env(threads):
    """This environment with fedlora importable and the BLAS thread variables
    unset (threads None) or all set to `threads`."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(fedlora.__file__).parents[1])
    if threads is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, str(threads)))
    return env


@pytest.mark.parametrize("threads,expected", [(None, "1"), (2, "2")])
def test_import_pins_one_blas_thread_unless_the_caller_set_a_count(threads, expected):
    code = "import os, fedlora; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=blas_env(threads),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{expected}\n"


def test_adapters_are_the_same_at_one_and_two_blas_threads(tmp_path):
    cfg, _ = write_config(tmp_path)
    for threads in (1, 2):
        proc = subprocess.run([sys.executable, "-m", "fedlora.cli", "train-federated", cfg,
                               "--output-dir", str(tmp_path / str(threads))],
                              env=blas_env(threads), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "1" / "adapters.bin").read_bytes() \
        == (tmp_path / "2" / "adapters.bin").read_bytes()


def test_csv_source_trains_like_the_same_synthetic_records(tmp_path):
    corpus = tmp_path / "corpus.csv"
    save_corpus(synth_corpus(60, seed=3), corpus)  # the records TINY_DOC synthesizes
    cfg, out = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": str(corpus)}))
    assert main(["train-federated", cfg]) == 0
    synthetic_cfg, _ = write_config(tmp_path, output_dir=str(tmp_path / "synthetic"))
    assert main(["train-federated", synthetic_cfg]) == 0
    assert (tmp_path / "run" / "adapters.bin").read_bytes() \
        == (tmp_path / "synthetic" / "adapters.bin").read_bytes()


def test_csv_with_a_byte_order_mark_trains_like_the_same_rows_without(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with the UTF-8 byte-order mark,
    # which must not become part of the first column's name
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    with open(plain, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("text", "label")]
                                 + [(r.text, r.label) for r in synth_corpus(60, seed=3)])
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_corpus(marked) == load_corpus(plain)
    for corpus in (plain, marked):
        cfg, _ = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": str(corpus)}),
                              output_dir=str(tmp_path / corpus.stem))
        assert main(["train-federated", cfg]) == 0
    assert (tmp_path / "marked" / "adapters.bin").read_bytes() \
        == (tmp_path / "plain" / "adapters.bin").read_bytes()


def test_config_with_a_byte_order_mark_loads_like_the_same_file_without(tmp_path):
    cfg, _ = write_config(tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "exp.json").read_bytes())
    assert load_experiment(str(marked)) == load_experiment(cfg)


def test_unparsable_csv_label_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("text,label\ncalm sunny day,0\nmystery row,maybe\n", encoding="utf-8")
    cfg, _ = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": str(corpus)}))
    assert main(["train-federated", cfg]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "unparsable label" in err


def test_set_override_changes_rounds(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg, "--set", "fed.rounds=1"]) == 0
    lines = open(f"{out}/rounds.jsonl", encoding="utf-8").read().splitlines()
    assert len(lines) == 1


def test_output_dir_flag_wins(tmp_path):
    cfg, _ = write_config(tmp_path)
    alt = tmp_path / "elsewhere"
    assert main(["train-federated", cfg, "--output-dir", str(alt)]) == 0
    assert (alt / "summary.json").exists()


def test_train_centralized_warns_on_multi_client(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["train-centralized", cfg]) == 0
    assert "ignored" in capsys.readouterr().err


def with_data(**fields):
    return {**TINY_DOC, "data": {**TINY_DOC["data"], **fields}}


def with_partition(**fields):
    return with_data(partition={**TINY_DOC["data"]["partition"], **fields})


BAD_CONFIGS = {  # id: (config document, extra CLI arguments, expected message)
    "unknown_fed_field": ({"fed": {"mystery_knob": 1}}, [], "unknown config field fed.mystery_knob"),
    "source_null": (with_data(source=None), [], "data.source must be"),
    "source_names_both_kinds": (with_data(source={"csv": "c.csv", "synthetic": 60}), [],
                                "data.source must be"),
    "unknown_source_kind": (with_data(source={"jsonl": "c.jsonl"}), [], "unknown data.source kind"),
    "missing_csv": (with_data(source={"csv": "no/such/corpus.csv"}), [], "path does not exist"),
    "eval_frac_above_1": (with_data(eval_frac=1.5), [], "data.eval_frac must be in (0, 1)"),
    "unknown_data_field": (with_data(mystery=1), [], "unknown config field data.mystery"),
    "section_not_object": ({**TINY_DOC, "fed": 3}, [], "section 'fed' must be an object"),
    "set_without_equals": (TINY_DOC, ["--set", "fed.rounds"], "must look like section.field=value"),
    "set_through_non_object": (TINY_DOC, ["--set", "fed.rounds.x=1"], "crosses a non-object field"),
    "csv_is_a_directory": (with_data(source={"csv": "."}), [], "data.source.csv is not a regular file: ."),
    "vocab_size_2": (TINY_DOC, ["--set", "model.vocab_size=2"], "model.vocab_size must be >= 3"),
    "lora_seed_2_pow_63": (TINY_DOC, ["--set", "lora.seed=9223372036854775808"],
                           "lora.seed must lie in [-2**63, 2**63), got 9223372036854775808"),
    "model_seed_below_i64": (TINY_DOC, ["--set", "model.seed=-9223372036854775809"],
                             "model.seed must lie in [-2**63, 2**63), got -9223372036854775809"),
    "unknown_partition_strategy": (with_partition(strategy="round_robin"), [],
                                   "unknown partition strategy"),
    "quantity_ratios_not_summing_to_1": (with_partition(strategy="quantity_skew", ratios=[0.5, 0.4]), [],
                                         "sum to 1"),
    "partition_n_clients_0": (with_partition(n_clients=0), [], "partition.n_clients must be >= 1, got 0"),
    "label_skew_alpha_0": (with_partition(strategy="label_skew", alpha=0), [],
                           "partition.alpha must be positive, got 0"),
    "quantity_ratios_one_short": (with_partition(strategy="quantity_skew", ratios=[1.0]), [],
                                  "partition.ratios must have one entry per client"),
    "unknown_aggregation": (TINY_DOC, ["--set", "fed.aggregation=median"], "unknown aggregation 'median'"),
    "lora_targets_empty": (TINY_DOC, ["--set", "lora.targets=[]"], "lora.targets must not be empty"),
    "n_classes_3": (TINY_DOC, ["--set", "model.n_classes=3"],
                    "model.n_classes must be 2 for the stress task, got 3"),
    "output_dir_empty": ({**TINY_DOC, "output_dir": ""}, [], "output directory is an empty path"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(tmp_path, capsys, case):
    doc, extra, message = BAD_CONFIGS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train-federated", str(path), *extra]) == 2
    assert message in capsys.readouterr().err


WRONG_TYPE_SETS = {  # id: (--set value, expected message)
    "synthetic_string": ('data.source={"synthetic": "x"}', 'data.source.synthetic must be an integer, got "x"'),
    "synthetic_null": ('data.source={"synthetic": null}', "data.source.synthetic must be an integer, got null"),
    "eta_string": ('fed.eta="abc"', 'fed.eta must be a number, got "abc"'),
    "eta_bool": ("fed.eta=true", "fed.eta must be a number, got true"),
    "rank_float": ("lora.rank=1.5", "lora.rank must be an integer, got 1.5"),
    "rounds_bool": ("fed.rounds=false", "fed.rounds must be an integer, got false"),
    "batch_size_float": ("fed.batch_size=2.5", "fed.batch_size must be an integer, got 2.5"),
    "eval_frac_string": ('data.eval_frac="0.2"', 'data.eval_frac must be a number, got "0.2"'),
    "targets_string": ('lora.targets="qv"', 'lora.targets must be a list, got "qv"'),
    "targets_ff1_string": ('lora.targets="ff1"', 'lora.targets must be a list, got "ff1"'),
    "target_not_string": ('lora.targets=["q", 1]', "lora.targets[1] must be a string, got 1"),
    "ratio_string": ('data.partition.ratios=[0.5, "x"]', 'data.partition.ratios[1] must be a number'),
    "partition_not_object": ("data.partition=3", "section 'data.partition' must be an object"),
    "output_dir_number": ("output_dir=3", "output_dir must be a string, got 3"),
    "document_not_object": (None, "must hold a JSON object"),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPE_SETS))
def test_wrong_json_type_exits_2_before_any_output(tmp_path, monkeypatch, capsys, case):
    value, message = WRONG_TYPE_SETS[case]
    monkeypatch.chdir(tmp_path)  # so a relative output_dir would land here too
    cfg, _ = write_config(tmp_path)
    if value is None:  # a document that is a JSON list, with an override on top
        (tmp_path / "exp.json").write_text("[]", encoding="utf-8")
        value = "fed.eta=0.1"
    assert main(["train-federated", cfg, "--set", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert os.listdir(tmp_path) == ["exp.json"]


TOO_SMALL_CORPORA = {  # id: (--set values, expected message)
    "synthetic_0": (['data.source={"synthetic": 0}'], "data.source.synthetic must be >= 2, got 0"),
    "synthetic_1": (['data.source={"synthetic": 1}'], "data.source.synthetic must be >= 2, got 1"),
    # ceil(3 * 0.2) = 1 eval record leaves 2 for 3 partition clients
    "fewer_than_clients": (['data.source={"synthetic": 3}', "data.partition.n_clients=3"],
                           "leaves 2 training records after eval_frac 0.2, fewer than the 3"),
}


@pytest.mark.parametrize("case", sorted(TOO_SMALL_CORPORA))
def test_synthetic_corpus_too_small_for_its_split_exits_2(tmp_path, monkeypatch, capsys, case):
    values, message = TOO_SMALL_CORPORA[case]
    monkeypatch.chdir(tmp_path)
    cfg, _ = write_config(tmp_path)
    args = ["train-federated", cfg]
    for value in values:
        args += ["--set", value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert os.listdir(tmp_path) == ["exp.json"]


@pytest.mark.parametrize("n", [10, 13])
def test_hold_out_leaves_every_client_a_training_record(tmp_path, n):
    # eval_frac 0.6 leaves 2-record shards; ceil(2 * 0.6) = 2 held out both
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg, "--set", f'data.source={{"synthetic": {n}}}',
                 "--set", "data.eval_frac=0.6"]) == 0
    with open(f"{out}/rounds.jsonl", encoding="utf-8") as fh:
        reports = [json.loads(line) for line in fh]
    assert len(reports) == 2
    for rep in reports:
        assert sorted(rep["client_losses"]) == ["0", "1"]
        assert None not in rep["client_losses"].values()


# each first array is over 2**48 bytes, so NumPy refuses it before allocating
TOO_LARGE_TO_ALLOCATE = ['data.source={"synthetic": 1000000000000000}',
                         "model.vocab_size=1000000000000000"]


@pytest.mark.parametrize("value", TOO_LARGE_TO_ALLOCATE)
def test_config_too_large_to_allocate_exits_1_without_output(tmp_path, capsys, value):
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg, "--set", value]) == 1
    assert capsys.readouterr().err.startswith("runtime error: out of memory: Unable to allocate")
    assert not os.path.exists(out)


NON_FINITE_SETS = {  # id: (--set values, expected message); Python's json reads NaN and Infinity
    "eta_nan": (["fed.eta=NaN"], "fed.eta must be positive and finite, got nan"),
    "lora_alpha_inf": (["lora.alpha=Infinity"], "lora.alpha must be positive and finite, got inf"),
    "partition_alpha_nan": (["data.partition.strategy=label_skew", "data.partition.alpha=NaN"],
                            "partition.alpha must be finite, got nan"),
    "ratio_nan": (["data.partition.strategy=quantity_skew", "data.partition.ratios=[NaN, 0.5]"],
                  "partition.ratios must be finite, got [nan, 0.5]"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SETS))
def test_non_finite_float_exits_2_before_any_output(tmp_path, monkeypatch, capsys, case):
    values, message = NON_FINITE_SETS[case]
    monkeypatch.chdir(tmp_path)
    cfg, _ = write_config(tmp_path)
    args = ["train-federated", cfg]
    for value in values:
        args += ["--set", value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert os.listdir(tmp_path) == ["exp.json"]


@pytest.mark.parametrize("command", ["train-federated", "ablate"])
def test_csv_too_small_for_its_split_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.csv").write_text("text,label\ncalm day,0\nbad day,1\nfine day,0\n",
                                       encoding="utf-8")
    # ceil(3 * 0.2) = 1 eval record leaves 2 for 3 partition clients
    data = dict(TINY_DOC["data"], source={"csv": "tiny.csv"},
                partition=dict(TINY_DOC["data"]["partition"], n_clients=3))
    cfg, _ = write_config(tmp_path, data=data)
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "data.source.csv tiny.csv row count 3 leaves 2 training records after eval_frac 0.2, " \
           "fewer than the 3 partition clients" in err
    assert sorted(os.listdir(tmp_path)) == ["exp.json", "tiny.csv"]


@pytest.mark.parametrize("command", ["train-federated", "ablate"])
def test_csv_not_utf8_exits_2_naming_the_file(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.csv").write_bytes(b"text,label\ncalm day,0\ncaf\xe9 day,1\n")
    cfg, _ = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": "latin1.csv"}))
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: CSV latin1.csv is not valid utf-8")
    assert sorted(os.listdir(tmp_path)) == ["exp.json", "latin1.csv"]


@pytest.mark.parametrize("command", ["train-federated", "ablate"])
def test_rank_no_target_matrix_can_hold_exits_2_before_reading_records(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)

    def no_records(*args):
        raise AssertionError("records were read")

    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path)  # d_model 8, ff_dim 16: every target matrix has min(d, k) 8
    assert main([command, cfg, "--set", "lora.rank=8", "--set", 'lora.targets=["ff1"]']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: lora.rank 8 must be < min(d, k) = 8 for matrix ff1")
    assert os.listdir(tmp_path) == ["exp.json"]


def no_records(*args):
    raise AssertionError("records were read")


def long_field_csv(tmp_path):
    (tmp_path / "long.csv").write_text("text,label\ncalm day,0\n" + "x" * 131073 + ",1\n",
                                       encoding="utf-8")
    return write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": "long.csv"}))[0]


def unreadable_rounds(tmp_path, make):
    (tmp_path / "run").mkdir()
    make(tmp_path / "run" / "rounds.jsonl")
    return ["report", "run", "--plot-csv", "plot.csv"]


def unreadable_summary(tmp_path, content):
    write_rounds(tmp_path / "run", GOOD_ROUND)
    (tmp_path / "run" / "summary.json").write_bytes(content)
    return ["report", "run", "--plot-csv", "plot.csv"]


UNREADABLE_FILES = {  # id: (makes the file and returns the CLI arguments, expected message)
    "config_not_utf8": (lambda tmp: (tmp / "exp.json").write_bytes(b'{"fed": "caf\xe9"}')
                        and ["train-federated", "exp.json"], "config file exp.json is not valid utf-8"),
    "config_is_a_directory": (lambda tmp: (tmp / "exp.json").mkdir() or ["train-federated", "exp.json"],
                              "config file exp.json cannot be read"),
    "rounds_not_utf8": (lambda tmp: unreadable_rounds(tmp, lambda p: p.write_bytes(b"caf\xe9\n")),
                        "round log run/rounds.jsonl is not valid utf-8"),
    "rounds_is_a_directory": (lambda tmp: unreadable_rounds(tmp, lambda p: p.mkdir()),
                              "round log run/rounds.jsonl cannot be read"),
    "csv_field_over_limit": (lambda tmp: ["train-federated", long_field_csv(tmp)],
                             "CSV long.csv line 3: field larger than field limit"),
    "summary_not_utf8": (lambda tmp: unreadable_summary(tmp, b'{"processes": "caf\xe9"}'),
                         "run summary run/summary.json is not valid utf-8"),
    "summary_not_json": (lambda tmp: unreadable_summary(tmp, b"{not json"),
                         "run/summary.json is not valid JSON"),
    "summary_not_an_object": (lambda tmp: unreadable_summary(tmp, b"[1, 2]"),
                              "run/summary.json is not a run summary"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
def test_unreadable_file_exits_2_naming_it(tmp_path, monkeypatch, capsys, case):
    make, message = UNREADABLE_FILES[case]
    monkeypatch.chdir(tmp_path)
    args = make(tmp_path)
    before = sorted(os.listdir(tmp_path))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["train-federated", "train-centralized", "ablate"])
def test_output_dir_that_is_a_file_exits_2_before_reading_records(tmp_path, monkeypatch, capsys,
                                                                   command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path, output_dir="taken")
    (tmp_path / "taken").write_text("a file\n", encoding="utf-8")
    for out in ([], ["--output-dir", "taken/sub"]):
        assert main([command, cfg, *out]) == 2
        err = capsys.readouterr().err.splitlines()[-1]  # after train-centralized's K warning
        assert err.startswith("error: output directory taken") and "is not a directory" in err
    assert sorted(os.listdir(tmp_path)) == ["exp.json", "taken"]
    assert (tmp_path / "taken").read_text(encoding="utf-8") == "a file\n"


@pytest.mark.parametrize("command", ["train-federated", "train-centralized", "ablate"])
def test_output_dir_that_is_a_dangling_link_exits_2_before_reading_records(tmp_path, monkeypatch,
                                                                           capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path, output_dir="link")
    os.symlink("missing", "link")
    for out in ([], ["--output-dir", "link/sub"]):
        assert main([command, cfg, *out]) == 2
        err = capsys.readouterr().err.splitlines()[-1]  # after train-centralized's K warning
        assert err.startswith("error: output directory link") and "is not a directory" in err
    assert sorted(os.listdir(tmp_path)) == ["exp.json", "link"]
    assert os.readlink("link") == "missing"


@pytest.mark.parametrize("command", ["train-federated", "train-centralized", "ablate"])
def test_empty_output_dir_exits_2_before_reading_records(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path, output_dir="out")
    for out in (["--output-dir", ""], ["--set", 'output_dir=""']):
        assert main([command, cfg, *out]) == 2
        err = capsys.readouterr().err.splitlines()[-1]  # after train-centralized's K warning
        assert err == "error: output directory is an empty path"
    assert os.listdir(tmp_path) == ["exp.json"]


RUN_FILE_TAKEN = [("train-federated", name) for name in RUN_FILES] + [
    ("train-centralized", "summary.json"), ("ablate", "ablation.csv")]


@pytest.mark.parametrize("command,name", RUN_FILE_TAKEN)
def test_output_file_that_is_a_directory_exits_2_before_reading_records(
        tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path, output_dir="out")
    (tmp_path / "out" / name).mkdir(parents=True)
    (tmp_path / "out" / "rounds.jsonl.old").write_text("an earlier run\n", encoding="utf-8")
    assert main([command, cfg]) == 2
    err = capsys.readouterr().err.splitlines()[-1]  # after train-centralized's K warning
    assert err == f"error: output file {os.path.join('out', name)} is a directory"
    assert sorted(os.listdir(tmp_path / "out")) == sorted([name, "rounds.jsonl.old"])
    assert os.listdir(tmp_path / "out" / name) == []


def test_save_that_fails_midway_exits_1_leaving_no_run_file(tmp_path, monkeypatch, capsys):
    def disk_full(path, vocab):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(checkpoint, "save_vocab", disk_full)
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 1
    assert capsys.readouterr().err.startswith("runtime error: [Errno 28] No space left on device")
    assert os.listdir(out) == []


# an empty path, a directory, a path in none, and two of the run's own files (RUN_FILES)
@pytest.mark.parametrize("plot", ["", "missing/x.csv", "run", "run/rounds.jsonl",
                                  "./run/../run/summary.json"])
def test_report_plot_csv_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys, plot):
    monkeypatch.chdir(tmp_path)
    write_rounds(tmp_path / "run", GOOD_ROUND)
    assert main(["report", "run", "--plot-csv", plot]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --plot-csv {plot} ") and captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["run"] and os.listdir(tmp_path / "run") == ["rounds.jsonl"]
    assert (tmp_path / "run" / "rounds.jsonl").read_text(encoding="utf-8") == GOOD_ROUND + "\n"


def test_more_clients_than_the_partition_exits_2_before_reading_records(tmp_path, monkeypatch,
                                                                         capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(config, "synth_corpus", no_records)
    cfg, _ = write_config(tmp_path)  # 2 partition clients
    assert main(["train-federated", cfg, "--set", "fed.n_clients=5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fed.n_clients (5) exceeds the partitioned client population (2)")
    assert os.listdir(tmp_path) == ["exp.json"]


def test_int_is_a_number_for_float_fields(tmp_path):
    cfg, _ = write_config(tmp_path)
    exp = load_experiment(cfg, ["fed.eta=1", "lora.alpha=2", "data.partition.alpha=3"])
    assert (exp.fed.eta, exp.lora.alpha, exp.data.partition.alpha) == (1, 2, 3)
    assert exp.lora.targets == ("q", "v")


def test_null_lora_alpha_writes_the_adapters_of_an_unset_one(tmp_path):
    adapters = []
    for name, lora in (("null", {**TINY_DOC["lora"], "alpha": None}), ("unset", TINY_DOC["lora"])):
        cfg, _ = write_config(tmp_path, lora=lora, output_dir=str(tmp_path / name))
        assert main(["train-federated", cfg]) == 0
        adapters.append((tmp_path / name / "adapters.bin").read_bytes())
    assert adapters[0] == adapters[1]


def test_partition_n_clients_defaults_to_fed_n_clients(tmp_path):
    partition = {k: v for k, v in TINY_DOC["data"]["partition"].items() if k != "n_clients"}
    cfg, _ = write_config(tmp_path, data={**TINY_DOC["data"], "partition": partition})
    assert load_experiment(cfg, ["fed.n_clients=3"]).data.partition.n_clients == 3


def test_missing_config_exits_2(tmp_path):
    assert main(["train-federated", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["train-federated", str(path)]) == 2


def test_parse_grid():
    assert parse_grid("1,3,10;3,10,3") == [(1, 3, 10), (3, 10, 3)]
    with pytest.raises(ConfigError):
        parse_grid("1,2")
    with pytest.raises(ConfigError):
        parse_grid(" ; ")
    for cell in ("0,1,1", "1,0,1", "1,1,0", "2,-1,3"):
        with pytest.raises(ConfigError, match=f"grid cell '{cell}' must hold K, E and R >= 1"):
            parse_grid(f"1,1,1;{cell}")


BAD_GRIDS = {  # grid cell: expected message
    "1,2": "must be three integers K,E,R",
    "1,2,3,4": "must be three integers K,E,R",
    "1,x,3": "must be three integers K,E,R",
    "0,1,1": "must hold K, E and R >= 1",
}


@pytest.mark.parametrize("cell", sorted(BAD_GRIDS))
def test_ablate_bad_grid_cell_exits_2_writing_nothing(tmp_path, capsys, cell):
    cfg, out = write_config(tmp_path)
    assert main(["ablate", cfg, "--grid", f"1,1,1;{cell}"]) == 2
    assert capsys.readouterr().err == f"error: grid cell {cell!r} {BAD_GRIDS[cell]}\n"
    assert not os.path.exists(out)


def test_ablate_writes_table(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    assert main(["ablate", cfg, "--grid", "1,1,2;2,1,2"]) == 0
    with open(f"{out}/ablation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["num_clients"], r["client_epochs"], r["global_epochs"]) for r in rows] \
        == [("1", "1", "2"), ("2", "1", "2")]
    for r in rows:
        assert r["error"] == ""
        assert 0.0 <= float(r["eval_f1"]) <= 1.0
    assert "Eval F1" in capsys.readouterr().out


def test_ablate_records_infeasible_cell(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    # K=5 exceeds the 2-shard partition population: recorded, not fatal
    assert main(["ablate", cfg, "--grid", "2,1,1;5,1,1"]) == 0
    error = "fed.n_clients (5) exceeds the partitioned client population (2)"
    with open(f"{out}/ablation.csv", newline="", encoding="utf-8") as fh:
        assert fh.read().splitlines() == [
            "num_clients,client_epochs,global_epochs,eval_accuracy,eval_f1,error",
            "2,1,1,0.3333,0.5000,",
            f"5,1,1,,,{error}"]
    assert capsys.readouterr().out.splitlines() == [
        "Num Clients  Client Epochs  Global Epochs  Eval Accuracy   Eval F1",
        "-" * 66,
        "          2              1              1         0.3333    0.5000",
        f"          5              1              1  failed: {error}",
        f"table written to {os.path.join(out, 'ablation.csv')}"]


def test_summary_follows_the_round_log(tmp_path, monkeypatch):
    states = []

    def keep_state(*args, **kwargs):
        states.append(run_federated(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(cli, "run_federated", keep_state)
    cfg, out = write_config(tmp_path, fed={**TINY_DOC["fed"], "rounds": 3})
    assert main(["train-federated", cfg]) == 0
    reports = [json.loads(line) for line in open(f"{out}/rounds.jsonl", encoding="utf-8")]
    summary = read_summary(out)
    assert summary["rounds"] == len(reports) == 3
    assert summary["total_uplink_bytes"] == sum(r["uplink_bytes"] for r in reports)
    assert summary["total_downlink_bytes"] == sum(r["downlink_bytes"] for r in reports)
    assert summary["final_eval_accuracy"] == reports[-1]["eval_accuracy"]
    assert summary["final_eval_f1"] == reports[-1]["eval_f1"]
    assert summary["processes"] == states[0].processes
    assert summary["train_processes"] == states[0].train_processes
    assert summary["eval_processes"] == states[0].eval_processes
    assert summary["usable_cores"] == states[0].usable_cores == usable_cores()


def test_summary_records_the_blas_threads_of_the_run_process(tmp_path):
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 0
    assert read_summary(out)["blas_threads"] == cli.loaded_openblas_threads()


def fail_to_load(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("target,value", [
    pytest.param("fedlora.cli.OPENBLAS_GET_THREADS", ("no_such_entry_point",), id="no-entry-point"),
    pytest.param("ctypes.CDLL", fail_to_load, id="load-fails")])
def test_blas_threads_is_null_when_the_blas_cannot_be_read(tmp_path, monkeypatch, target, value):
    monkeypatch.setattr(target, value)
    assert cli.loaded_openblas_threads() is None
    cfg, out = write_config(tmp_path)
    assert main(["train-federated", cfg]) == 0
    assert read_summary(out)["blas_threads"] is None


def test_ablate_empty_grid_exits_2(tmp_path):
    cfg, _ = write_config(tmp_path)
    assert main(["ablate", cfg, "--grid", ";"]) == 2


def test_report_totals(tmp_path, capsys):
    cfg, out = write_config(tmp_path)
    main(["train-federated", cfg])
    reports = [json.loads(l) for l in open(f"{out}/rounds.jsonl", encoding="utf-8")]
    assert main(["report", out]) == 0
    text = capsys.readouterr().out
    total_up = sum(r["uplink_bytes"] for r in reports)
    assert f"{total_up} bytes up" in text


def test_report_plot_csv(tmp_path):
    cfg, out = write_config(tmp_path)
    main(["train-federated", cfg])
    plot = tmp_path / "plot.csv"
    assert main(["report", out, "--plot-csv", str(plot)]) == 0
    with open(plot, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["round"] == "1" or rows[0]["round"] == "0"


GOOD_ROUND = json.dumps({"round": 0, "client_losses": {"0": 0.7}, "eval_accuracy": 0.5,
                         "eval_f1": 0.5, "uplink_bytes": 10, "downlink_bytes": 20, "wall_time": 0.1})


def write_rounds(run_dir, *lines):
    run_dir.mkdir()
    (run_dir / "rounds.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


MALFORMED_ROUNDS = {
    "empty_object": "{}",
    "list": "[1, 2]",
    "number": "7",
    "string": '"round"',
    "not_json": "{not json",
    "bytes_as_string": GOOD_ROUND.replace('"uplink_bytes": 10', '"uplink_bytes": "10"'),
    "f1_null": GOOD_ROUND.replace('"eval_f1": 0.5', '"eval_f1": null'),
    "round_bool": GOOD_ROUND.replace('"round": 0', '"round": true'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROUNDS))
def test_report_rejects_malformed_round_line_naming_file_and_line(tmp_path, capsys, case):
    run = tmp_path / "run"
    write_rounds(run, GOOD_ROUND, "", MALFORMED_ROUNDS[case], GOOD_ROUND)
    assert main(["report", str(run), "--plot-csv", str(tmp_path / "plot.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {run / 'rounds.jsonl'}:3 ")
    assert captured.out == "" and not (tmp_path / "plot.csv").exists()


REPORT_OF_TWO_ROUNDS = """\
round  accuracy        F1    uplink B  downlink B
    0    0.5000    0.5000          10          20
    1    0.5000    0.5000          10          20
total communication: 20 bytes up, 40 bytes down over 2 rounds
"""

SUMMARIES_WITHOUT_A_WARNING = {  # id: summary.json's content, None for no file
    "no_summary": None, "one_blas_thread": {"blas_threads": 1, "processes": 3},
    "one_process": {"blas_threads": 4, "processes": 1},
    "blas_threads_null": {"blas_threads": None, "processes": 3},
    "processes_null": {"blas_threads": 2, "processes": None},
    "blas_threads_missing": {"processes": 3}, "processes_missing": {"blas_threads": 2},
}


def report_two_rounds(tmp_path, capsys, summary):
    """main's exit code, stdout and stderr for `report` on two good rounds,
    with `summary` as the run's summary.json (None: no summary.json)."""
    run = tmp_path / "run"
    write_rounds(run, GOOD_ROUND, GOOD_ROUND.replace('"round": 0', '"round": 1'))
    if summary is not None:
        (run / "summary.json").write_text(json.dumps(summary), encoding="utf-8")
    code = main(["report", str(run)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", sorted(SUMMARIES_WITHOUT_A_WARNING))
def test_report_without_oversubscription_prints_only_its_table(tmp_path, capsys, case):
    assert report_two_rounds(tmp_path, capsys, SUMMARIES_WITHOUT_A_WARNING[case]) == (
        0, REPORT_OF_TWO_ROUNDS, "")


def test_report_warns_once_when_blas_threads_and_processes_both_exceed_1(tmp_path, capsys):
    code, out, err = report_two_rounds(tmp_path, capsys, {"blas_threads": 2, "processes": 3,
                                                          "usable_cores": 2})
    assert (code, out) == (0, REPORT_OF_TWO_ROUNDS)
    assert err.count("\n") == 1 and err.startswith("warning: ")
    assert "3 processes" in err and "2 BLAS threads" in err


def test_report_plot_csv_is_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    run = tmp_path / "run"
    write_rounds(run, GOOD_ROUND, GOOD_ROUND)
    plot = tmp_path / "plot.csv"
    plot.write_text("an earlier plot\n", encoding="utf-8")
    real_writer = csv.writer

    class FailsAfterFirstWrite:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            self.writes += 1
            if self.writes > 1:
                raise OSError("disk full")
            return self.fh.write(text)

    monkeypatch.setattr(csv, "writer", lambda fh: real_writer(FailsAfterFirstWrite(fh)))
    assert main(["report", str(run), "--plot-csv", str(plot)]) == 1
    assert capsys.readouterr().err == "runtime error: disk full\n"
    assert plot.read_text(encoding="utf-8") == "an earlier plot\n"
    assert sorted(os.listdir(tmp_path)) == ["plot.csv", "run"]


def test_report_missing_dir_exits_2(tmp_path):
    assert main(["report", str(tmp_path / "empty")]) == 2
