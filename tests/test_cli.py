import csv
import json

import pytest

from fedlora.cli import main, parse_grid
from fedlora.data import save_corpus, synth_corpus
from fedlora.errors import ConfigError

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


def test_csv_source_trains_like_the_same_synthetic_records(tmp_path):
    corpus = tmp_path / "corpus.csv"
    save_corpus(synth_corpus(60, seed=3), corpus)  # the records TINY_DOC synthesizes
    cfg, out = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": str(corpus)}))
    assert main(["train-federated", cfg]) == 0
    synthetic_cfg, _ = write_config(tmp_path, output_dir=str(tmp_path / "synthetic"))
    assert main(["train-federated", synthetic_cfg]) == 0
    assert (tmp_path / "run" / "adapters.bin").read_bytes() \
        == (tmp_path / "synthetic" / "adapters.bin").read_bytes()


def test_unparsable_csv_label_exits_1(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("text,label\ncalm sunny day,0\nmystery row,maybe\n", encoding="utf-8")
    cfg, _ = write_config(tmp_path, data=dict(TINY_DOC["data"], source={"csv": str(corpus)}))
    assert main(["train-federated", cfg]) == 1
    err = capsys.readouterr().err
    assert "runtime error" in err and "unparsable label" in err


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
    "source_names_both_kinds": (with_data(source={"csv": "c.csv", "synthetic": 60}), [],
                                "data.source must be"),
    "unknown_source_kind": (with_data(source={"jsonl": "c.jsonl"}), [], "unknown data.source kind"),
    "missing_csv": (with_data(source={"csv": "no/such/corpus.csv"}), [], "path does not exist"),
    "eval_frac_above_1": (with_data(eval_frac=1.5), [], "data.eval_frac must be in (0, 1)"),
    "unknown_data_field": (with_data(mystery=1), [], "unknown config field data.mystery"),
    "section_not_object": ({**TINY_DOC, "fed": 3}, [], "section 'fed' must be an object"),
    "set_without_equals": (TINY_DOC, ["--set", "fed.rounds"], "must look like section.field=value"),
    "set_through_non_object": (TINY_DOC, ["--set", "fed.rounds.x=1"], "crosses a non-object field"),
    "unknown_partition_strategy": (with_partition(strategy="round_robin"), [],
                                   "unknown partition strategy"),
    "quantity_ratios_not_summing_to_1": (with_partition(strategy="quantity_skew", ratios=[0.5, 0.4]), [],
                                         "sum to 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_config_exits_2(tmp_path, capsys, case):
    doc, extra, message = BAD_CONFIGS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["train-federated", str(path), *extra]) == 2
    assert message in capsys.readouterr().err


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


def test_ablate_records_infeasible_cell(tmp_path):
    cfg, out = write_config(tmp_path)
    # K=5 exceeds the 2-shard partition population: recorded, not fatal
    assert main(["ablate", cfg, "--grid", "2,1,1;5,1,1"]) == 0
    with open(f"{out}/ablation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"] == "" and rows[1]["error"] != ""


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


def test_report_missing_dir_exits_2(tmp_path):
    assert main(["report", str(tmp_path / "empty")]) == 2
