"""Experiment configuration: JSON document + dotted-path overrides.

Top-level JSON keys: model, lora, fed, data, output_dir. The data block
holds {"source": {"synthetic": N} | {"csv": "path"}, "partition": {...},
"eval_frac": f, "seed": s}; partition.n_clients defaults to fed.n_clients.
Any leaf can be overridden on the command line with --set, e.g. --set
fed.eta=0.1 (values parsed as JSON, falling back to string). `_build` maps
each object onto the dataclass its field declares, and every other value
must have the JSON type of its field: a float field takes any number, an
int field an integer in [-2**63, 2**63) (the i64 the checkpoint headers
pack the model's and the adapters' integers in; a seed given through the
Python API may lie outside it, and the headers pack its 64-bit word), and no
number is a bool.
`DataConfig.validate` checks the source, and `LoraConfig.validate`, the one
rank check, requires `lora.rank` to fit every target matrix of the model.
"""

from __future__ import annotations

import json
import os
import types
import typing
from dataclasses import dataclass, field, is_dataclass

from .checkpoint import read_text
from .data import PartitionSpec, load_corpus, n_eval, synth_corpus
from .errors import ConfigError
from .federation import FedConfig
from .lora import LoraConfig
from .model import ModelConfig


@dataclass
class DataConfig:
    source: typing.Any = None  # {"csv": path} or {"synthetic": n}; `validate` checks it
    seed: int = 0
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    eval_frac: float = 0.2

    def validate(self):
        if not isinstance(self.source, dict) or len(self.source) != 1:
            raise ConfigError("data.source must be {'csv': path} or {'synthetic': n}")
        ((kind, value),) = self.source.items()
        if kind not in ("csv", "synthetic"):
            raise ConfigError(f"unknown data.source kind {kind!r}")
        _checked(f"data.source.{kind}", value, str if kind == "csv" else int)
        if kind == "csv" and not os.path.isfile(value):
            what = "is not a regular file" if os.path.exists(value) else "path does not exist"
            raise ConfigError(f"data.source.csv {what}: {value}")
        if not 0 < self.eval_frac < 1:
            raise ConfigError(f"data.eval_frac must be in (0, 1), got {self.eval_frac}")
        self.partition.validate()
        if kind == "synthetic":
            self._check_size("data.source.synthetic", value)

    def _check_size(self, source: str, n: int):
        """ConfigError unless n records leave the eval split at least one
        record and the training pool at least one record per partition
        client. An IID partition then gives every client a record, which
        `make_shards`'s hold-out never takes; a skewed one can still leave a
        client none, and that client is skipped."""
        if n < 2:
            raise ConfigError(f"{source} must be >= 2, got {n}")
        n_train = n - n_eval(n, self.eval_frac)
        if n_train < self.partition.n_clients:
            raise ConfigError(
                f"{source} {n} leaves {n_train} training records after "
                f"eval_frac {self.eval_frac}, fewer than the {self.partition.n_clients} "
                "partition clients")

    def load_records(self):
        """The source's records; a CSV too small for the split is a ConfigError,
        as a synthetic size is in `validate`."""
        ((kind, value),) = self.source.items()
        if kind == "synthetic":
            return synth_corpus(value, seed=self.seed)
        records = load_corpus(value)
        self._check_size(f"data.source.csv {value} row count", len(records))
        return records


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    fed: FedConfig = field(default_factory=FedConfig)
    data: DataConfig = field(default_factory=DataConfig)
    output_dir: str = "runs/out"

    def validate(self):
        self.model.validate()
        self.lora.validate(self.model)
        self.fed.validate()
        self.data.validate()


_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), list: ((list,), "a list"), tuple: ((list,), "a list")}


def _checked(path: str, value, hint):
    """`value` if its JSON type is the declared type `hint`, else ConfigError.
    A JSON list becomes a tuple for a tuple field; an `Any` field takes any value."""
    if hint is typing.Any:
        return value
    if typing.get_origin(hint) is types.UnionType:  # X | None
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    base, args = typing.get_origin(hint) or hint, typing.get_args(hint)
    accepted, what = _JSON_TYPES[base]
    if type(value) not in accepted:  # exact: a JSON bool is no number
        raise ConfigError(f"{path} must be {what}, got {json.dumps(value)}")
    if base is int and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{path} must lie in [-2**63, 2**63), got {value}")
    return base(_checked(f"{path}[{i}]", v, args[0]) for i, v in enumerate(value)) if args else value


def _build(cls, raw: dict, prefix: str):
    """A `cls` from the JSON object `raw` at dotted path `prefix` ("" at the
    top), building each dataclass-typed field from its own object."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {prefix!r} must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in hints:
            raise ConfigError(f"unknown config field {path}")
        hint = hints[key]
        kwargs[key] = (_build(hint, value, path) if is_dataclass(hint)
                       else _checked(path, value, hint))
    return cls(**kwargs)  # every field has a default, and every key is a field


def parse_experiment(doc: dict) -> ExperimentConfig:
    exp = _build(ExperimentConfig, doc, "")
    if "n_clients" not in doc.get("data", {}).get("partition", {}):
        exp.data.partition.n_clients = exp.fed.n_clients  # the default population
    exp.validate()
    return exp


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted-path overrides like fed.eta=0.1 to the raw document."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.field=value")
        path, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        keys = path.split(".")
        node = doc
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object field")
        node[keys[-1]] = value
    return doc


def load_experiment(path, overrides=None) -> ExperimentConfig:
    with read_text(path, "config file", ConfigError) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return parse_experiment(apply_overrides(doc, overrides))
