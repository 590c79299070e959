"""Corpus ingestion, train/eval splitting, client partitioning, synthesis.

CSV input needs at least `text` and `label` columns (RFC-4180 quoting, so
embedded commas/newlines in post text are fine); extra columns, such as the
Dreaddit subreddit field, are ignored. `save_corpus` writes id,text,label
atomically, through `save_csv`.

Every random draw here is `rng`'s: shuffles and splits `rng.permutation`,
label-skew proportions `rng.dirichlet`, synthetic words `rng.coin_then_pick`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .checkpoint import read_text, write_atomically
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
        if not math.isfinite(self.alpha):
            raise ConfigError(f"partition.alpha must be finite, got {self.alpha}")
        if not all(map(math.isfinite, self.ratios)):
            raise ConfigError(f"partition.ratios must be finite, got {list(self.ratios)}")
        if self.strategy == "label_skew" and self.alpha <= 0:
            raise ConfigError(f"partition.alpha must be positive, got {self.alpha}")
        if self.strategy == "quantity_skew":
            if len(self.ratios) != self.n_clients:
                raise ConfigError("partition.ratios must have one entry per client")
            if any(r <= 0 for r in self.ratios) or abs(sum(self.ratios) - 1.0) > 1e-9:
                raise ConfigError("partition.ratios must be positive and sum to 1")


def load_corpus(path) -> list[Record]:
    """Read records from CSV with at least text,label columns, in file order.
    A UTF-8 byte-order mark (spreadsheets' "CSV UTF-8" export) is skipped.
    A file that cannot be read, is not valid UTF-8 or is not valid CSV (a
    field over csv's field_size_limit, say) raises SchemaError naming it."""
    with read_text(path, "CSV", SchemaError, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            for col in ("text", "label"):
                if col not in header:
                    raise SchemaError(f"CSV {path} is missing required column {col!r}")
            records = []
            for i, row in enumerate(reader):
                raw = (row["label"] or "").strip()
                if raw not in ("0", "1"):
                    raise SchemaError(f"unparsable label {raw!r} at row {i + 2} of {path}")
                text = (row["text"] or "").strip()
                if not text:
                    raise SchemaError(f"empty text at row {i + 2} of {path}")
                records.append(Record(id=i, text=text, label=int(raw)))
        except csv.Error as exc:
            # DictReader.line_num is set after each row; its csv.reader's counts the failing line
            raise SchemaError(f"CSV {path} line {reader.reader.line_num}: {exc}") from exc
    return records


def save_csv(path, header, rows):
    """Write a header and rows as CSV, through `write_atomically`."""
    with write_atomically(path) as [tmp], open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_corpus(records, path):
    """Write records to the same CSV schema load_corpus reads."""
    save_csv(path, ["id", "text", "label"], ([r.id, r.text, r.label] for r in records))


def n_eval(n: int, eval_frac: float) -> int:
    """How many of n records split_train_eval puts in the eval set."""
    return math.ceil(n * eval_frac)


def split_train_eval(records, eval_frac: float, seed: int):
    """Seeded shuffle, then n_eval eval records, rest train."""
    if not 0 < eval_frac < 1:
        raise ConfigError(f"eval_frac must be in (0, 1), got {eval_frac}")
    n = len(records)
    if n < 2:
        raise DataError(f"need at least 2 records to split, got {n}")
    perm = rng.permutation(seed, n)
    k = n_eval(n, eval_frac)
    shuffled = [records[i] for i in perm]
    return shuffled[k:], shuffled[:k]


def _largest_remainder(n: int, weights: np.ndarray) -> np.ndarray:
    """Integer sizes summing to n, each within 1 of exact proportionality."""
    exact = n * weights / weights.sum()
    sizes = np.floor(exact).astype(int)
    remainder = exact - sizes
    short = n - sizes.sum()
    for i in np.argsort(-remainder, kind="stable")[:short]:
        sizes[i] += 1
    return sizes


def _cut(perm: np.ndarray, weights) -> list[np.ndarray]:
    """perm cut into consecutive runs, one per weight, sized by `_largest_remainder`."""
    sizes = _largest_remainder(len(perm), np.asarray(weights, dtype=float))
    return np.split(perm, np.cumsum(sizes)[:-1])


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
        return [[records[i] for i in part] for part in _cut(perm, spec.ratios)]

    # label_skew: each label's records are cut across the clients by one row of
    # Dirichlet(alpha) proportions, the labels in sorted order. `rng.dirichlet`
    # draws all the rows at once, as per-label draws on one NumPy generator
    # would, and computes them in-house at 0.1 <= alpha < 1
    labels = sorted({r.label for r in records})
    props = rng.dirichlet(rng.derive(spec.seed, "label_skew"), spec.alpha, spec.n_clients, len(labels))
    groups = [[] for _ in range(spec.n_clients)]
    for label, row in zip(labels, props):
        members = [r for r in records if r.label == label]
        perm = rng.permutation(rng.derive(spec.seed, "label_skew", label), len(members))
        for group, part in zip(groups, _cut(perm, row)):
            group.extend(members[i] for i in part)
    return groups


def make_shards(records, spec: PartitionSpec, eval_frac: float) -> list[ClientShard]:
    """Partition, then split each client's data locally into train/eval.

    A shard of s records holds out n_eval(s, eval_frac) of them only when
    that is fewer than s, so the hold-out never takes a shard's last record;
    otherwise the whole shard trains. A client trains on `train` only.
    `run_federated` reads no `eval`, so those records are held out of
    training and scored nowhere.
    """
    shards = []
    for cid, group in enumerate(partition_clients(records, spec)):
        if n_eval(len(group), eval_frac) < len(group):
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
_WORDS = _CALM_WORDS + _STRESS_WORDS + _FILLER_WORDS


def synth_corpus(n: int, seed: int = 0) -> list[Record]:
    """Balanced two-class keyword corpus, deterministic per seed.

    Each text draws 10 tokens: with probability 0.6 a word from its class
    pool, otherwise shared filler. Class pools are disjoint, so a text
    without any pool word is rare (0.4^10 ~ 1e-4) and Bayes accuracy is
    well above 0.95 by construction. Record i has label i % 2, and its words
    are the ones a word-by-word loop of `random() < 0.6`, then `integers(12)`
    (a pool word) or `integers(16)` (filler), picks on one seeded NumPy
    `Generator`: one `rng.coin_then_pick` call computes them in-house.
    """
    if n < 2:
        raise DataError(f"synthetic corpus needs n >= 2, got {n}")
    coin, pick = rng.coin_then_pick(rng.derive(seed, "synth"), 10 * n, 0.6,
                                    len(_CALM_WORDS), len(_FILLER_WORDS))
    label = np.arange(10 * n) // 10 % 2
    # _WORDS holds the calm pool, the stress pool, then the filler
    first = np.where(coin, label * len(_CALM_WORDS), 2 * len(_CALM_WORDS))
    words = [_WORDS[j] for j in (first + pick).tolist()]
    records = [Record(id=i, text=" ".join(words[10 * i:10 * i + 10]), label=i % 2)
               for i in range(n)]
    perm = rng.permutation(rng.derive(seed, "synth_order"), n)
    return [records[i] for i in perm]
