"""FedAvg orchestration: local SGD on clients, elementwise averaging on the
server, per-round evaluation and communication accounting.

Determinism contract: every batch shuffle is derived from
(seed, client_id, round, epoch), so a client's result depends only on
(snapshot, shard, seed, client id, round), and aggregation sums in
client-id order, so a run is bit-reproducible on any number of cores.

Parallelism: `run_federated` starts the helper processes (`Helpers`) once
per run, after the shards are encoded and the template is built, so every
helper inherits the template, the config and the encoded sets (each one id
matrix, shared by the fork without copying). `Helpers` reads the usable
cores once and splits each phase of a round, the clients and after FedAvg
the eval batches, once, into the groups `phase_processes` keeps; it
forks one fewer helper than the busier phase takes, and
`Helpers.map` runs a phase on its stored split in every round.

A helper is sent only data: the snapshot and the round, or the new
trainable vector, plus its group; it sends back its pickled result through
a pipe. The run process answers the first group itself through the same
`Helpers._answer`, so an eval set of one batch never leaves it. A
`ClientError` on a helper skips that client; any other exception is raised
again in the run process; a helper that dies (killed, nonzero exit, short
read) raises `RoundError`, and so does every later phase on the same
helpers. Every helper is reaped when `run_federated` returns or raises.

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
import math
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
from .model import (PAD_ID, EncoderModel, ModelConfig, Vocab, build_vocab, forward, init_model,
                    real_width, tokenize)

WIRE_BYTES_PER_PARAM = 4  # simulated single-precision payload
EVAL_ROWS = 1024  # token rows per forward-only eval batch


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
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ConfigError(f"fed.eta must be positive and finite, got {self.eta}")
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
    """Pre-tokenized records: an (N, max_len) intp matrix of `tokenize` rows
    (CLS, at most max_len - 1 word ids, PAD), and N labels. A batch is a
    selection of rows, which `forward` cuts to their `real_width`."""
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
    history: list = field(default_factory=list)
    model: AdaptedModel | None = None
    vocab: Vocab | None = None
    train_processes: int = 1  # `phase_processes` of each phase, the run process included
    eval_processes: int = 1
    usable_cores: int = 1  # as `Helpers` read them

    @property
    def processes(self) -> int:  # the run process and its helpers
        return max(self.train_processes, self.eval_processes)

    @property
    def round_idx(self) -> int:  # rounds completed: a failed round appends no report
        return len(self.history)


def sgd_step(params, eta: float):
    """Plain gradient descent: p <- p - eta * grad, skipping absent grads."""
    for p in params:
        if p.grad is not None:
            p.data -= eta * p.grad


def comm_cost(n_clients: int, n_trainable: int) -> int:
    """Bytes one direction of a round moves: one trainable vector per client."""
    return n_clients * n_trainable * WIRE_BYTES_PER_PARAM


def fedavg(thetas, weights=None) -> np.ndarray:
    """Elementwise mean of client vectors, weighted by n_k if weights are
    given and by unit weights if not; one vector is returned as a copy."""
    if not thetas:
        raise ProtocolError("fedavg needs at least one client vector")
    length = thetas[0].size
    for i, t in enumerate(thetas):
        if t.size != length:
            raise ProtocolError(f"client vector {i} has length {t.size}, expected {length}")
    if len(thetas) == 1:
        return thetas[0].copy()
    w = np.ones(len(thetas)) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (len(thetas),) or np.any(w <= 0):
        raise ProtocolError("weights must be positive, one per client vector")
    return (np.stack(thetas) * w[:, None]).sum(axis=0) / w.sum()


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
    n, losses = len(train_set), []
    for epoch in range(cfg.local_epochs):
        perm = rng.permutation(rng.derive(cfg.seed, "batch", client_id, round_idx, epoch), n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            zero_grads(params)
            with Graph() as g:
                logits = forward(am, train_set.ids[idx])
                loss = cross_entropy(logits, train_set.labels[idx])
            g.backward(loss)
            sgd_step(params, cfg.eta)
            losses.append(float(loss.data[0, 0]))
    theta, mean_loss = extract_trainable(am), float(np.mean(losses))
    if not (np.isfinite(mean_loss) and np.isfinite(theta).all()):
        raise ClientError(f"client {client_id} diverged: non-finite loss or update")
    return theta, mean_loss


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity mask)."""
    return len(os.sched_getaffinity(0))


def _write_all(fd: int, data: bytes):
    """os.write until all of data is out: a signal can cut a pipe write short."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Helpers:
    """Processes forked from this one, each serving its requests until
    `close` (or the end of a `with` block); `run_federated` starts them once
    per run. `map` runs one phase of a round over them and the run process.

    The usable cores are read once, here, and each phase is split once:
    `splits` holds the groups `phase_processes` keeps for `train_phase` and
    for `eval_phase` on those cores. One fewer helper is
    forked than the larger split has groups; one group in both is the
    in-process case and forks nothing. A change of CPU affinity later in the
    run does not re-split a phase.

    A helper inherits the template, the client sets, the config and the eval
    set at the fork, so a request carries only data (see `_answer`).
    """

    def __init__(self, template: AdaptedModel, client_sets: dict, cfg: FedConfig,
                 eval_set: EncodedSet):
        self.template, self.client_sets, self.cfg, self.eval_set = template, client_sets, cfg, eval_set
        self.cores = usable_cores()
        phases = {"train": train_phase(client_sets, cfg), "eval": eval_phase(eval_set)}
        self.eval_step = phases["eval"][1]
        self.splits = {kind: phase_processes(loads, unit, self.cores)
                       for kind, (loads, unit) in phases.items()}
        self.n_helpers = max(map(len, self.splits.values())) - 1
        self.procs = []  # (pid, request pipe fd, reply pipe reader) per live helper
        try:
            for _ in range(self.n_helpers):
                self.procs.append(self._fork())
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def check(self, **context):
        """ProtocolError unless each object given is the one the helpers inherited."""
        for name, value in context.items():
            if value is not getattr(self, name):
                raise ProtocolError(f"the helpers were started with another {name}")

    def _fork(self):
        fds = []
        try:
            for _ in range(2):  # the request pipe, then the reply pipe
                fds.extend(os.pipe())
            pid = os.fork()
        except BaseException:  # a pipe or the fork failed: no descriptor stays open
            for fd in fds:
                os.close(fd)
            raise
        request_r, request_w, reply_r, reply_w = fds
        if pid == 0:
            self._serve(request_r, reply_w, request_w, reply_r)
        os.close(request_r)
        os.close(reply_w)  # so the reader sees EOF once the helper exits
        return pid, request_w, os.fdopen(reply_r, "rb")

    def _serve(self, request_fd: int, reply_fd: int, *run_fds: int):
        """Helper side: answer each request until the request pipe closes,
        then exit. Never returns; a reply it cannot send exits with code 1."""
        code = 1
        try:
            # drop the run process's ends of this helper's pipes and of every
            # earlier helper's, so each helper sees EOF as soon as the run
            # process closes its request end
            for fd in run_fds:
                os.close(fd)
            procs, self.procs = self.procs, []
            for _, fd, replies in procs:
                os.close(fd)
                replies.close()
            with os.fdopen(request_fd, "rb") as requests:
                while True:
                    try:
                        request = pickle.load(requests)
                    except EOFError:
                        break
                    try:
                        reply = (True, self._answer(*request))
                    except Exception as exc:  # raised again in the run process
                        reply = (False, exc)
                    _write_all(reply_fd, pickle.dumps(reply))
            code = 0
        finally:
            os._exit(code)

    def _answer(self, kind, *args) -> dict:
        """One group's results, the same in a helper and in the run process:
        ("train", snapshot, round, group) gives `_train`'s dict; ("eval",
        theta, batch starts) loads theta and gives {start: the labels of the
        batch of `eval_step` records from start}."""
        if kind == "train":
            return self._train(*args)
        theta, starts = args
        load_trainable(self.template, theta)
        ids, step = self.eval_set.ids, self.eval_step
        return {start: predict_labels(forward(self.template, ids[start:start + step]).data)
                for start in starts}

    def _train(self, snapshot, round_idx: int, cids: list) -> dict:
        """{client id: (theta_k, loss), or None if it raised ClientError},
        each client of `cids` trained in order by `client_update`."""
        out = {}
        for cid in cids:
            try:
                out[cid] = client_update(self.template, snapshot, self.client_sets[cid], self.cfg,
                                         round_idx, cid)
            except ClientError:
                out[cid] = None
        return out

    def map(self, label: str, kind: str, args: tuple) -> dict:
        """{item: result} over every item of phase `kind`, on its split.

        The i-th helper answers (kind, *args, group i) of `splits[kind]`
        while the run process answers group 0 through the same `_answer`;
        their dicts are merged. Every reply is received even if group 0
        raises. An exception a helper raised is raised again here; a helper
        that dies before it replies (a signal, a nonzero exit, a short read)
        is reaped and raises RoundError naming `label` and its group, and
        every later call raises RoundError naming its `label` before it
        sends any request.
        """
        if len(self.procs) < self.n_helpers:
            raise RoundError(f"{label}: {self.n_helpers - len(self.procs)} helper(s) of this run "
                             f"ended in an earlier phase")
        groups = self.splits[kind]
        procs = self.procs[:len(groups) - 1]
        payloads = [pickle.dumps((kind, *args, group)) for group in groups[1:]]
        for (_, fd, _), payload in zip(procs, payloads):
            try:
                _write_all(fd, payload)
            except BrokenPipeError:
                pass  # the helper is gone; receiving its reply reaps it
        try:
            results = self._answer(kind, *args, groups[0])
        finally:
            replies = [self._receive(proc) for proc in procs]
        for group, (ok, value) in zip(groups[1:], replies):
            if ok is None:
                raise RoundError(f"helper for {label} {group} ended without a result ({value})")
            if not ok:
                raise value
            results.update(value)
        return results

    def _receive(self, proc) -> tuple:
        """(True, value) or (False, exception); (None, cause) from a dead helper."""
        pid, fd, replies = proc
        try:
            return pickle.load(replies)
        except (EOFError, pickle.UnpicklingError):  # a short read: the helper died
            pass
        self.procs.remove(proc)
        os.close(fd)
        replies.close()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return None, f"killed by signal {-code}" if code < 0 else f"exit code {code}"

    def close(self):
        """Close every request pipe, then drain and reap every helper."""
        procs, self.procs = self.procs, []
        for _, fd, _ in procs:
            os.close(fd)
        for pid, _, replies in procs:
            with replies:
                replies.read()
            os.waitpid(pid, 0)


def assign(loads: dict, n_proc: int) -> list[list]:
    """Split the keys of {key: load} into n_proc groups: largest load first
    (ties by key), each to the least-loaded group (ties to the first)."""
    groups = [[] for _ in range(n_proc)]
    totals = [0] * n_proc
    for key in sorted(loads, key=lambda k: (-loads[k], k)):
        i = totals.index(min(totals))
        groups[i].append(key)
        totals[i] += loads[key]
    return groups


def phase_processes(loads: dict, unit: int, cores: int) -> list[list]:
    """The processes for one phase of a round, as `assign`'s groups of its
    items, given {item: load}, the phase's unit (`train_phase`,
    `eval_phase`) and the usable cores: min(items, cores) groups, at least
    1, unless that split leaves one group more than a unit over max(largest
    load, ceil(total / groups)); then one per item up to two per core, so
    that the kernel, not a fixed split, balances uneven loads over the
    cores. `assign` leaves no group more than one item over that bound, so
    no eval batch, never larger than the unit, sets off the fallback: eval
    takes min(batches, cores). `Helpers` applies it once per phase and run."""
    n_proc = max(1, min(len(loads), cores))
    bound = max(max(loads.values(), default=0), -(-sum(loads.values()) // n_proc))
    groups = assign(loads, n_proc)
    if max(sum(loads[key] for key in group) for group in groups) > bound + unit:
        return assign(loads, min(len(loads), 2 * cores))
    return groups


def train_phase(client_sets: dict, cfg: FedConfig) -> tuple[dict, int]:
    """(loads, unit) of the training phase: {client id: E x its training
    records}, and the batch size."""
    return {cid: cfg.local_epochs * len(s) for cid, s in client_sets.items()}, cfg.batch_size


def eval_phase(eval_set: EncodedSet) -> tuple[dict, int]:
    """(loads, unit) of the eval phase: {start offset: records} of each
    forward-only eval batch, and the batch size, EVAL_ROWS token rows at
    the set's `real_width` (at least one row)."""
    step = max(1, EVAL_ROWS // real_width(eval_set.ids != PAD_ID))
    return {start: min(step, len(eval_set) - start) for start in range(0, len(eval_set), step)}, step


def evaluate(theta: np.ndarray, helpers: Helpers) -> tuple[float, float]:
    """(accuracy, F1) of trainable vector theta on the helpers' eval set.

    The batches (`eval_phase`; forward trims padding columns per batch)
    are spread by `Helpers.map` on the eval split; each process that
    answers, the run process always, first loads theta into its template,
    and the labels are put back in batch order.
    """
    labels = helpers.map("eval batches at records", "eval", (theta,))
    m = confusion([p for s in sorted(labels) for p in labels[s]], helpers.eval_set.labels.tolist())
    return accuracy(m), f1_binary(m)


def run_round(state: GlobalState, client_sets: dict, cfg: FedConfig,
              global_eval: EncodedSet, helpers: Helpers) -> GlobalState:
    """One global round: broadcast state.theta, local training, FedAvg, and
    `evaluate` of the new theta, which also loads it into state.model.

    `helpers` must have been started with state.model, client_sets, cfg and
    global_eval; `Helpers.map` runs the clients on the training split.
    Clients train on clones, so state.theta is only read.
    """
    t0 = time.perf_counter()
    helpers.check(template=state.model, client_sets=client_sets, cfg=cfg, eval_set=global_eval)
    round_idx = state.round_idx

    updates = helpers.map(f"round {round_idx}: clients", "train", (state.theta, round_idx))
    results = {cid: u[0] for cid, u in updates.items() if u is not None}
    losses = {cid: None if u is None else u[1] for cid, u in sorted(updates.items())}
    if not results:
        raise RoundError(f"round {round_idx}: every client failed")

    reporting = sorted(results)
    weights = None
    if cfg.aggregation == "weighted_by_n":
        weights = [len(client_sets[cid]) for cid in reporting]
    new_theta = fedavg([results[cid] for cid in reporting], weights)

    acc, f1 = evaluate(new_theta, helpers)
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
    state.history.append(report)
    return state


def check_population(fed_cfg: FedConfig, partition: PartitionSpec):
    """ConfigError unless the fed.n_clients participants fit in the partition."""
    if fed_cfg.n_clients > partition.n_clients:
        raise ConfigError(
            f"fed.n_clients ({fed_cfg.n_clients}) exceeds the partitioned client "
            f"population ({partition.n_clients})"
        )


def run_federated(model_cfg: ModelConfig, lora_cfg: LoraConfig, fed_cfg: FedConfig,
                  records, partition: PartitionSpec, eval_frac: float = 0.2, *,
                  base: EncoderModel | None = None) -> GlobalState:
    """Full pipeline: carve global eval, partition, initialize, run R rounds.

    `base` is the frozen encoder to adapt, `init_model(model_cfg)` when it
    is None. The run only reads it: `attach_adapters` gives the run its own
    adapters and head, so runs that share one base (the cells of `fedlora
    ablate`) share only its frozen arrays. A base built for another
    ModelConfig raises ProtocolError before any split or fork.
    """
    fed_cfg.validate()
    partition.validate()
    check_population(fed_cfg, partition)
    if base is not None and base.cfg != model_cfg:
        raise ProtocolError("the base model was built for another model config")

    train_pool, global_eval_records = split_train_eval(
        records, eval_frac, rng.derive(fed_cfg.seed, "global_eval"))
    vocab = build_vocab([r.text for r in train_pool], model_cfg.vocab_size)
    shards = make_shards(train_pool, partition, eval_frac)
    am = attach_adapters(init_model(model_cfg) if base is None else base, lora_cfg)
    theta = extract_trainable(am)

    client_sets = {
        s.client_id: encode_records(s.train, vocab, model_cfg.max_seq_len)
        for s in shards[: fed_cfg.n_clients]
    }
    global_eval = encode_records(global_eval_records, vocab, model_cfg.max_seq_len)

    with Helpers(am, client_sets, fed_cfg, global_eval) as helpers:
        state = GlobalState(theta=theta, model=am, vocab=vocab, usable_cores=helpers.cores,
                            train_processes=len(helpers.splits["train"]),
                            eval_processes=len(helpers.splits["eval"]))
        for _ in range(fed_cfg.rounds):
            run_round(state, client_sets, fed_cfg, global_eval, helpers)
    return state


def run_centralized(model_cfg: ModelConfig, lora_cfg: LoraConfig, fed_cfg: FedConfig,
                    records, eval_frac: float = 0.2) -> GlobalState:
    """Single-client pipeline: same machinery, no partitioning or averaging."""
    central_fed = dataclasses.replace(fed_cfg, n_clients=1)
    partition = PartitionSpec(n_clients=1, strategy="iid", seed=central_fed.seed)
    return run_federated(model_cfg, lora_cfg, central_fed, records, partition,
                         eval_frac=eval_frac)
