"""FedAvg orchestration: local SGD on clients, elementwise averaging on the
server, per-round evaluation and communication accounting.

Determinism contract: every batch shuffle is derived from
(seed, client_id, round, epoch), so a client's result depends only on
(snapshot, shard, seed, client id, round), and aggregation sums in
client-id order, so a run is bit-reproducible on any number of cores.

Parallelism: each round trains its clients, and then runs its eval batches
of EVAL_BATCH records, in up to min(groups, usable cores) processes
(`fork_map`). The calling process runs the first group itself; every other
group runs in a child made by `os.fork()`, which inherits the template, the
snapshot and the encoded sets (each one id matrix, which a fork shares
without copying) and sends only its pickled result back through a pipe.
Clients go largest training set first to the least-loaded process; eval
batches keep their boundaries and are split into contiguous runs. A
`ClientError` in a worker skips that client; any other exception is raised
again in the parent; a worker that ends without a result (killed, nonzero
exit, short read) raises `RoundError`.

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
import os
import pickle
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
EVAL_BATCH = 64  # records per forward-only eval batch


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
    """Pre-tokenized records: an (N, max_len) intp matrix of PAD-filled id
    rows (see `tokenize`), and N labels. A batch is a selection of rows."""
    ids: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.ids)


def encode_records(records, vocab: Vocab, max_len: int) -> EncodedSet:
    rows = [tokenize(r.text, vocab, max_len) for r in records]
    return EncodedSet(ids=np.array(rows, dtype=np.intp).reshape(len(rows), max_len),
                      labels=np.array([r.label for r in records], dtype=int))


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
    mutated; the clone is private to this call. A non-finite last-epoch loss
    or theta_k raises ClientError, so a diverged client is skipped.
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
                logits = forward(am, train_set.ids[idx])
                loss = cross_entropy(logits, train_set.labels[idx])
            g.backward(loss)
            sgd_step(params, cfg.eta)
            last_epoch_losses.append(float(loss.data[0, 0]))
    theta, mean_loss = extract_trainable(am), float(np.mean(last_epoch_losses))
    if not (np.isfinite(mean_loss) and np.isfinite(theta).all()):
        raise ClientError(f"client {client_id} diverged: non-finite loss or update")
    return theta, mean_loss


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity mask)."""
    return len(os.sched_getaffinity(0))


def process_count(n_groups: int) -> int:
    """min(n_groups, usable cores), and at least 1 so an empty input still runs."""
    return max(1, min(n_groups, usable_cores()))


def _child(work, group, write_fd):
    """Forked side of fork_map: send pickle((ok, value)) and exit; never return."""
    code = 1
    try:
        try:
            payload = (True, work(group))
        except Exception as exc:  # raised again in the parent
            payload = (False, exc)
        data = pickle.dumps(payload)
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read_fd: int) -> tuple[int, bytes]:
    """Read a child's pipe to the end, then wait for it: (exit code, bytes)."""
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), data


def fork_map(work, groups: list, what: str) -> list:
    """[work(g) for g in groups], groups[1:] each in a forked child process.

    groups[0] runs here after the children are forked. Every pipe is read and
    every child reaped even if groups[0] raises. An exception a child raised
    is raised again here; a child that ends without a result (a signal, a
    nonzero exit, a short read) raises RoundError naming `what` and its group.
    """
    children = []
    try:
        for group in groups[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(work, group, write_fd)
            os.close(write_fd)  # so the read end sees EOF once the child exits
            children.append((pid, read_fd))
        results = [work(groups[0])]
    finally:
        ends = [_reap(pid, read_fd) for pid, read_fd in children]
    for group, (code, data) in zip(groups[1:], ends):
        ok = None
        if code == 0:
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # a short read
                pass
        if ok is None:
            cause = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise RoundError(f"worker for {what} {group} ended without a result ({cause})")
        if not ok:
            raise value
        results.append(value)
    return results


def evaluate(model, eval_set: EncodedSet) -> tuple[float, float]:
    """(accuracy, F1) on a pre-encoded eval set, forward-only.

    The batches keep their boundaries (forward trims padding columns per
    batch) and are split into contiguous runs, one per process.
    """
    starts = list(range(0, len(eval_set), EVAL_BATCH))
    n_proc = process_count(len(starts))
    runs = [starts[i * len(starts) // n_proc:(i + 1) * len(starts) // n_proc]
            for i in range(n_proc)]

    def predict(run):
        preds = []
        for start in run:
            logits = forward(model, eval_set.ids[start:start + EVAL_BATCH])
            preds.extend(predict_labels(logits.data))
        return preds

    preds = [p for run_preds in fork_map(predict, runs, "eval batches at records")
             for p in run_preds]
    m = confusion(preds, eval_set.labels.tolist())
    return accuracy(m), f1_binary(m)


def assign_clients(client_sets: dict, n_proc: int) -> list[list]:
    """Largest training set first, each to the least-loaded of n_proc groups."""
    groups = [[] for _ in range(n_proc)]
    loads = [0] * n_proc
    for cid in sorted(client_sets, key=lambda c: (-len(client_sets[c]), c)):
        i = loads.index(min(loads))
        groups[i].append(cid)
        loads[i] += len(client_sets[cid])
    return groups


def run_round(state: GlobalState, client_sets: dict, cfg: FedConfig,
              global_eval: EncodedSet) -> GlobalState:
    """One global round: broadcast, local training, FedAvg, evaluation."""
    t0 = time.perf_counter()
    template = state.model
    snapshot = state.theta.copy()
    round_idx = state.round_idx

    def train(group):
        out = {}
        for cid in group:
            try:
                out[cid] = client_update(template, snapshot, client_sets[cid], cfg, round_idx, cid)
            except ClientError:
                out[cid] = None  # skipped for this round
        return out

    groups = assign_clients(client_sets, process_count(len(client_sets)))
    updates = {}
    for out in fork_map(train, groups, f"round {round_idx}: clients"):
        updates.update(out)
    results = {cid: u[0] for cid, u in updates.items() if u is not None}
    losses = {cid: None if u is None else u[1] for cid, u in sorted(updates.items())}
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
