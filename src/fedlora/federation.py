"""FedAvg orchestration: local SGD on clients, elementwise averaging on the
server, per-round evaluation and communication accounting.

Determinism contract: every batch shuffle is derived from
(seed, client_id, round, epoch), clients train one after another in
client-id order, and aggregation sums in that order, so a run is
bit-reproducible.

The corpus is partitioned into `partition.n_clients` shards (the client
population); the federation trains on the first `fed.n_clients` of them, so
the ablation's "number of clients" axis varies the volume of data in play,
which is the question the partition strategies exist to probe.

Wire accounting assumes a single-precision payload (4 bytes per trainable
scalar); the in-process exchange itself stays double precision so that the
K=1 federated run is bit-equal to centralized training. Uplink counts the
clients that returned an update; downlink counts every client the round
broadcast theta to, since a client that fails after the broadcast still
received it.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .autodiff import Graph, cross_entropy, zero_grads
from .data import PartitionSpec, make_shards, split_train_eval
from .errors import ClientError, ConfigError, ProtocolError, RoundError
from .lora import AdaptedModel, LoraConfig, attach_adapters, extract_trainable, load_trainable
from .metrics import accuracy, confusion, f1_binary, predict_labels
from .model import ModelConfig, Vocab, build_vocab, forward, init_model, tokenize

WIRE_BYTES_PER_PARAM = 4  # simulated single-precision payload


@dataclass
class FedConfig:
    n_clients: int = 3  # K
    rounds: int = 5  # R
    local_epochs: int = 2  # E
    eta: float = 0.5
    batch_size: int = 16
    seed: int = 0
    aggregation: str = "uniform_mean"  # or weighted_by_n

    def validate(self):
        for name in ("n_clients", "rounds", "local_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"fed.{name} must be >= 1, got {getattr(self, name)}")
        if self.eta <= 0:
            raise ConfigError(f"fed.eta must be positive, got {self.eta}")
        if self.aggregation not in ("uniform_mean", "weighted_by_n"):
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")


@dataclass
class RoundReport:
    round: int
    client_losses: dict
    eval_accuracy: float
    eval_f1: float
    uplink_bytes: int
    downlink_bytes: int
    wall_time: float

    def to_dict(self) -> dict:
        """JSON-ready fields; client ids become string keys."""
        out = dataclasses.asdict(self)
        out["client_losses"] = {str(k): v for k, v in self.client_losses.items()}
        return out


@dataclass
class EncodedSet:
    """Pre-tokenized records: padded id sequences, masks, labels."""
    ids: list
    masks: list
    labels: np.ndarray

    def __len__(self):
        return len(self.ids)


def encode_records(records, vocab: Vocab, max_len: int) -> EncodedSet:
    ids, masks = [], []
    for r in records:
        i, m = tokenize(r.text, vocab, max_len)
        ids.append(i)
        masks.append(m)
    return EncodedSet(ids=ids, masks=masks, labels=np.array([r.label for r in records], dtype=int))


@dataclass
class GlobalState:
    theta: np.ndarray
    round_idx: int
    history: list = field(default_factory=list)
    model: AdaptedModel | None = None
    vocab: Vocab | None = None

    def summary(self) -> dict:
        last = self.history[-1] if self.history else None
        return {
            "rounds": self.round_idx,
            "final_eval_accuracy": last.eval_accuracy if last else None,
            "final_eval_f1": last.eval_f1 if last else None,
            "total_uplink_bytes": sum(r.uplink_bytes for r in self.history),
            "total_downlink_bytes": sum(r.downlink_bytes for r in self.history),
        }


def sgd_step(params, eta: float):
    """Plain gradient descent: p <- p - eta * grad, skipping absent grads."""
    for p in params:
        if p.grad is not None:
            p.data -= eta * p.grad


def comm_cost(n_clients: int, n_trainable: int) -> int:
    """Bytes one direction of a round moves: one trainable vector per client."""
    return n_clients * n_trainable * WIRE_BYTES_PER_PARAM


def fedavg(thetas, weights=None) -> np.ndarray:
    """Elementwise mean of client vectors (optionally weighted by n_k)."""
    if not thetas:
        raise ProtocolError("fedavg needs at least one client vector")
    length = thetas[0].size
    for i, t in enumerate(thetas):
        if t.size != length:
            raise ProtocolError(f"client vector {i} has length {t.size}, expected {length}")
    if len(thetas) == 1:
        return thetas[0].copy()
    stacked = np.stack(thetas)
    if weights is None:
        return stacked.mean(axis=0)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(thetas),) or np.any(w <= 0):
        raise ProtocolError("weights must be positive, one per client vector")
    return (stacked * w[:, None]).sum(axis=0) / w.sum()


def client_update(template: AdaptedModel, snapshot: np.ndarray, train_set: EncodedSet,
                  cfg: FedConfig, round_idx: int, client_id: int):
    """Local training: clone the model, load the snapshot, run E epochs of SGD.

    Returns (theta_k, mean loss over the last epoch). The snapshot is never
    mutated; the clone is private to this call.
    """
    if len(train_set) == 0:
        raise ClientError(f"client {client_id} has an empty training set")
    am = template.clone()
    load_trainable(am, snapshot)
    params = am.trainable_parameters()
    n = len(train_set)
    last_epoch_losses: list[float] = []
    for epoch in range(cfg.local_epochs):
        perm = rng.permutation(rng.derive(cfg.seed, "batch", client_id, round_idx, epoch), n)
        last_epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            zero_grads(params)
            with Graph() as g:
                logits = forward(am, [train_set.ids[i] for i in idx],
                                 [train_set.masks[i] for i in idx])
                loss = cross_entropy(logits, train_set.labels[idx])
            g.backward(loss)
            sgd_step(params, cfg.eta)
            last_epoch_losses.append(float(loss.data[0, 0]))
    return extract_trainable(am), float(np.mean(last_epoch_losses))


def evaluate(model, eval_set: EncodedSet, batch_size: int = 64) -> tuple[float, float]:
    """(accuracy, F1) on a pre-encoded eval set, forward-only."""
    preds: list[int] = []
    for start in range(0, len(eval_set), batch_size):
        logits = forward(model, eval_set.ids[start:start + batch_size],
                         eval_set.masks[start:start + batch_size])
        preds.extend(predict_labels(logits.data))
    m = confusion(preds, eval_set.labels.tolist())
    return accuracy(m), f1_binary(m)


def run_round(state: GlobalState, client_sets: dict, cfg: FedConfig,
              global_eval: EncodedSet) -> GlobalState:
    """One global round: broadcast, local training, FedAvg, evaluation."""
    t0 = time.perf_counter()
    template = state.model
    snapshot = state.theta.copy()
    round_idx = state.round_idx

    results, losses = {}, {}
    for cid in sorted(client_sets):
        try:
            results[cid], losses[cid] = client_update(
                template, snapshot, client_sets[cid], cfg, round_idx, cid)
        except ClientError:
            losses[cid] = None  # skipped for this round
    if not results:
        raise RoundError(f"round {round_idx}: every client failed")

    reporting = sorted(results)
    weights = None
    if cfg.aggregation == "weighted_by_n":
        weights = [len(client_sets[cid]) for cid in reporting]
    new_theta = fedavg([results[cid] for cid in reporting], weights)

    load_trainable(template, new_theta)
    acc, f1 = evaluate(template, global_eval)
    report = RoundReport(
        round=round_idx,
        client_losses=losses,
        eval_accuracy=acc,
        eval_f1=f1,
        uplink_bytes=comm_cost(len(reporting), new_theta.size),
        downlink_bytes=comm_cost(len(client_sets), new_theta.size),
        wall_time=time.perf_counter() - t0,
    )
    state.theta = new_theta
    state.round_idx += 1
    state.history.append(report)
    return state


def run_federated(model_cfg: ModelConfig, lora_cfg: LoraConfig, fed_cfg: FedConfig,
                  records, partition: PartitionSpec, eval_frac: float = 0.2) -> GlobalState:
    """Full pipeline: carve global eval, partition, initialize, run R rounds."""
    fed_cfg.validate()
    partition.validate()
    if fed_cfg.n_clients > partition.n_clients:
        raise ConfigError(
            f"fed.n_clients ({fed_cfg.n_clients}) exceeds the partitioned client "
            f"population ({partition.n_clients})"
        )

    train_pool, global_eval_records = split_train_eval(
        records, eval_frac, rng.derive(fed_cfg.seed, "global_eval"))
    vocab = build_vocab(train_pool, model_cfg.vocab_size)
    shards = make_shards(train_pool, partition, eval_frac)
    participating = shards[: fed_cfg.n_clients]

    base = init_model(model_cfg)
    am = attach_adapters(base, lora_cfg)
    theta = extract_trainable(am)

    client_sets = {
        s.client_id: encode_records(s.train, vocab, model_cfg.max_seq_len)
        for s in participating
    }
    global_eval = encode_records(global_eval_records, vocab, model_cfg.max_seq_len)

    state = GlobalState(theta=theta, round_idx=0, model=am, vocab=vocab)
    for _ in range(fed_cfg.rounds):
        run_round(state, client_sets, fed_cfg, global_eval)
    return state


def run_centralized(model_cfg: ModelConfig, lora_cfg: LoraConfig, fed_cfg: FedConfig,
                    records, eval_frac: float = 0.2) -> GlobalState:
    """Single-client pipeline: same machinery, no partitioning or averaging."""
    central_fed = dataclasses.replace(fed_cfg, n_clients=1)
    partition = PartitionSpec(n_clients=1, strategy="iid", seed=central_fed.seed)
    return run_federated(model_cfg, lora_cfg, central_fed, records, partition,
                         eval_frac=eval_frac)
