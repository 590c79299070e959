"""Corpus ingestion, train/eval splitting, client partitioning, synthesis.

CSV input needs at least `text` and `label` columns (RFC-4180 quoting, so
embedded commas/newlines in post text are fine); extra columns, such as the
Dreaddit subreddit field, are ignored. `save_corpus` writes id,text,label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, DataError, SchemaError


@dataclass
class Record:
    id: int
    text: str
    label: int


@dataclass
class ClientShard:
    client_id: int
    train: list[Record]
    eval: list[Record]


@dataclass
class PartitionSpec:
    n_clients: int = 1
    strategy: str = "iid"  # iid | label_skew | quantity_skew
    alpha: float = 0.5  # Dirichlet concentration for label_skew
    ratios: list[float] = field(default_factory=list)  # for quantity_skew
    seed: int = 0

    def validate(self):
        if self.n_clients < 1:
            raise ConfigError(f"partition.n_clients must be >= 1, got {self.n_clients}")
        if self.strategy not in ("iid", "label_skew", "quantity_skew"):
            raise ConfigError(f"unknown partition strategy {self.strategy!r}")
        if self.strategy == "label_skew" and self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be positive, got {self.alpha}")
        if self.strategy == "quantity_skew":
            if len(self.ratios) != self.n_clients:
                raise ConfigError("partition.ratios must have one entry per client")
            if any(r <= 0 for r in self.ratios) or abs(sum(self.ratios) - 1.0) > 1e-9:
                raise ConfigError("partition.ratios must be positive and sum to 1")


def load_corpus(path) -> list[Record]:
    """Read records from CSV with at least text,label columns, in file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in ("text", "label"):
            if col not in header:
                raise SchemaError(f"CSV {path} is missing required column {col!r}")
        records = []
        for i, row in enumerate(reader):
            raw = (row["label"] or "").strip()
            if raw not in ("0", "1"):
                raise DataError(f"unparsable label {raw!r} at row {i + 2} of {path}")
            text = (row["text"] or "").strip()
            if not text:
                raise DataError(f"empty text at row {i + 2} of {path}")
            records.append(Record(id=i, text=text, label=int(raw)))
    return records


def save_corpus(records, path):
    """Write records to the same CSV schema load_corpus reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        for r in records:
            writer.writerow([r.id, r.text, r.label])


def split_train_eval(records, eval_frac: float, seed: int):
    """Seeded shuffle, then ceil(n*eval_frac) eval records, rest train."""
    if not 0 < eval_frac < 1:
        raise ConfigError(f"eval_frac must be in (0, 1), got {eval_frac}")
    n = len(records)
    if n < 2:
        raise DataError(f"need at least 2 records to split, got {n}")
    perm = rng.permutation(seed, n)
    n_eval = math.ceil(n * eval_frac)
    shuffled = [records[i] for i in perm]
    return shuffled[n_eval:], shuffled[:n_eval]


def _largest_remainder(n: int, weights: np.ndarray) -> np.ndarray:
    """Integer sizes summing to n, each within 1 of exact proportionality."""
    exact = n * weights / weights.sum()
    sizes = np.floor(exact).astype(int)
    remainder = exact - sizes
    short = n - sizes.sum()
    for i in np.argsort(-remainder, kind="stable")[:short]:
        sizes[i] += 1
    return sizes


def partition_clients(records, spec: PartitionSpec) -> list[list[Record]]:
    """Split records into n_clients disjoint groups whose union is the input."""
    spec.validate()
    n = len(records)
    if n < spec.n_clients:
        raise DataError(f"{n} records cannot be partitioned into {spec.n_clients} clients")

    if spec.strategy == "iid":
        perm = rng.permutation(rng.derive(spec.seed, "iid"), n)
        groups = [[] for _ in range(spec.n_clients)]
        for pos, i in enumerate(perm):
            groups[pos % spec.n_clients].append(records[i])
        return groups

    if spec.strategy == "quantity_skew":
        perm = rng.permutation(rng.derive(spec.seed, "quantity"), n)
        sizes = _largest_remainder(n, np.asarray(spec.ratios, dtype=float))
        groups, start = [], 0
        for size in sizes:
            groups.append([records[perm[i]] for i in range(start, start + size)])
            start += size
        return groups

    # label_skew: per-label Dirichlet(alpha) proportions across clients
    gen = rng.np_generator(rng.derive(spec.seed, "label_skew"))
    groups = [[] for _ in range(spec.n_clients)]
    for label in sorted({r.label for r in records}):
        members = [r for r in records if r.label == label]
        perm = rng.permutation(rng.derive(spec.seed, "label_skew", label), len(members))
        props = gen.dirichlet(np.full(spec.n_clients, spec.alpha))
        sizes = _largest_remainder(len(members), props)
        start = 0
        for cid, size in enumerate(sizes):
            groups[cid].extend(members[perm[i]] for i in range(start, start + size))
            start += size
    return groups


def make_shards(records, spec: PartitionSpec, eval_frac: float) -> list[ClientShard]:
    """Partition, then split each client's data locally into train/eval."""
    shards = []
    for cid, group in enumerate(partition_clients(records, spec)):
        if len(group) >= 2:
            train, eval_set = split_train_eval(group, eval_frac, rng.derive(spec.seed, "shard_split", cid))
        else:
            train, eval_set = list(group), []
        shards.append(ClientShard(client_id=cid, train=train, eval=eval_set))
    return shards


# ---------------------------------------------------------------------------
# synthetic corpus

_STRESS_WORDS = [
    "deadline", "panic", "overwhelmed", "debt", "insomnia", "anxious",
    "pressure", "exhausted", "crisis", "dread", "failing", "eviction",
]
_CALM_WORDS = [
    "picnic", "sunshine", "relaxed", "vacation", "garden", "peaceful",
    "hobby", "cheerful", "savings", "rested", "grateful", "weekend",
]
_FILLER_WORDS = [
    "the", "a", "my", "today", "really", "about", "week", "people", "time",
    "things", "just", "feel", "day", "life", "work", "home",
]


def synth_corpus(n: int, seed: int = 0) -> list[Record]:
    """Balanced two-class keyword corpus, deterministic per seed.

    Each text draws 10 tokens: with probability 0.6 a word from its class
    pool, otherwise shared filler. Class pools are disjoint, so a text
    without any pool word is rare (0.4^10 ~ 1e-4) and Bayes accuracy is
    well above 0.95 by construction.
    """
    if n < 2:
        raise DataError(f"synthetic corpus needs n >= 2, got {n}")
    gen = rng.np_generator(rng.derive(seed, "synth"))
    pools = (_CALM_WORDS, _STRESS_WORDS)
    records = []
    for i in range(n):
        label = i % 2
        pool = pools[label]
        words = []
        for _ in range(10):
            if gen.random() < 0.6:
                words.append(pool[gen.integers(len(pool))])
            else:
                words.append(_FILLER_WORDS[gen.integers(len(_FILLER_WORDS))])
        records.append(Record(id=i, text=" ".join(words), label=label))
    perm = rng.permutation(rng.derive(seed, "synth_order"), n)
    return [records[i] for i in perm]
