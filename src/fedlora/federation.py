"""FedAvg orchestration: local SGD on clients, elementwise averaging on the
server, per-round evaluation and communication accounting.

Determinism contract: every batch shuffle is derived from
(seed, client_id, round, epoch), so a client's result depends only on
(snapshot, shard, seed, client id, round), and aggregation sums in
client-id order, so a run is bit-reproducible on any number of cores.

Parallelism: `run_federated` forks `process_count(max(clients, eval
batches)) - 1` helper processes once (`Helpers`), after the shards are
encoded and the template is built, so every helper inherits the template,
the config and the encoded sets (each one id matrix, shared by the fork
without copying). Both phases of a round go through `Helpers.map`. The eval
batches (EVAL_ROWS token rows each; load: records) are split by `assign`,
largest load first to the least-loaded process. The clients (load: E x
training records) are split by `plan_training` into (client id, range of
its SGD steps) pieces: a piece per client on `assign`'s groups, unless its
largest is more than one batch over max(largest load, ceil(total /
processes)); then McNaughton's wrap-around rule reaches that bound by
cutting at most one client per pair of neighbouring processes at a step
boundary. The cut client's head, its first steps, runs first on the later
process and sends its carry (theta_k and the current epoch's losses so far)
down that process's carry pipe to the earlier process, whose last piece is
the tail: the remaining steps from that carry. The helpers are forked last
first, each making its own carry pipe, so every process holds only the
write end of its own pipe and the read end of the next one. Plain SGD keeps
no state beyond theta_k, and each epoch's shuffle is derived from (seed,
client, round, epoch), so the head and tail run the whole update's steps in
its order, bit for bit.

A helper is sent only data: the snapshot and the round, or the new
trainable vector and the batch size, plus its group; it sends back its
pickled result through a pipe. The run process answers the first group
itself through the same `Helpers._answer`, so an eval set of one batch
never leaves it. A `ClientError` on a helper, or in a head, skips that
client; any other exception is raised again in the run process; a helper
that dies (killed, nonzero exit, short read) raises `RoundError`, and so
does the tail of a head whose process died. Every helper is reaped when
`run_federated` returns or raises.

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

import contextlib
import dataclasses
import functools
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
from .model import PAD_ID, ModelConfig, Vocab, build_vocab, forward, init_model, tokenize

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
    history: list = field(default_factory=list)
    model: AdaptedModel | None = None
    vocab: Vocab | None = None
    processes: int = 1  # the run process and its helpers

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


def sgd_steps(n: int, epochs: int, batch: int) -> int:
    """SGD steps in a client update on n records: E x ceil(n / B)."""
    return epochs * -(-n // batch)


def client_update(template: AdaptedModel, snapshot: np.ndarray, train_set: EncodedSet,
                  cfg: FedConfig, round_idx: int, client_id: int,
                  steps: range | None = None, carry: tuple | None = None):
    """Local training: clone the model, load the snapshot, run E epochs of SGD.

    Returns (theta_k, mean loss over the last epoch). The snapshot is never
    mutated; the clone is private to this call. A non-finite last-epoch loss
    or theta_k raises ClientError, so a diverged client is skipped.

    A piece of the update runs only `steps`, a range of the client's
    `sgd_steps` in epoch order. A piece that starts after step 0 starts from
    `carry`, (theta_k before its first step, the losses of that step's epoch
    so far), not from the snapshot; a piece that ends before the last step
    returns its own carry. Each epoch's shuffle is derived from
    (seed, client, round, epoch), so the pieces run the same steps as the
    whole update, bit for bit.
    """
    if len(train_set) == 0:
        raise ClientError(f"client {client_id} has an empty training set")
    n, size = len(train_set), cfg.batch_size
    total = sgd_steps(n, cfg.local_epochs, size)
    per_epoch = total // cfg.local_epochs
    steps = range(total) if steps is None else steps
    theta, losses = (snapshot, []) if carry is None else (carry[0], list(carry[1]))
    am = template.clone()
    load_trainable(am, theta)
    params = am.trainable_parameters()
    for step in steps:
        epoch, batch = divmod(step, per_epoch)
        if batch == 0 or step == steps.start:
            perm = rng.permutation(rng.derive(cfg.seed, "batch", client_id, round_idx, epoch), n)
            if batch == 0:
                losses = []
        idx = perm[batch * size:(batch + 1) * size]
        zero_grads(params)
        with Graph() as g:
            logits = forward(am, train_set.ids[idx])
            loss = cross_entropy(logits, train_set.labels[idx])
        g.backward(loss)
        sgd_step(params, cfg.eta)
        losses.append(float(loss.data[0, 0]))
    theta = extract_trainable(am)
    if steps.stop < total:
        return theta, losses
    mean_loss = float(np.mean(losses))
    if not (np.isfinite(mean_loss) and np.isfinite(theta).all()):
        raise ClientError(f"client {client_id} diverged: non-finite loss or update")
    return theta, mean_loss


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity mask)."""
    return len(os.sched_getaffinity(0))


def process_count(n_groups: int) -> int:
    """min(n_groups, usable cores), and at least 1 so an empty input still runs."""
    return max(1, min(n_groups, usable_cores()))


def _write_all(fd: int, data: bytes):
    """os.write until all of data is out: a signal can cut a pipe write short."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Helpers:
    """`n` processes forked from this one, each serving its requests until
    `close` (or the end of a `with` block); `run_federated` starts them once
    per run. `map` spreads one phase of a round over them and the run
    process.

    A helper inherits the template, the client sets, the config and the eval
    set at the fork, so a request carries only data (see `_answer`). Zero
    helpers is the in-process case and forks nothing. Process 0 is the run
    process and process i the i-th helper; carry pipe i runs from process
    i + 1 to process i, so that a client cut by `plan_training` can send its
    head's carry down it to its tail. The helpers are forked last first, so
    each one starts holding only its own carry ends (see `_fork`).
    """

    def __init__(self, n: int, template: AdaptedModel, client_sets: dict, cfg: FedConfig,
                 eval_set: EncodedSet):
        self.template, self.client_sets, self.cfg, self.eval_set = template, client_sets, cfg, eval_set
        self.procs = []  # (pid, request pipe fd, reply pipe reader) per live helper
        self.carry_in = self.carry_out = None  # this process's ends of its carry pipes
        try:
            for _ in range(n):
                self.procs.insert(0, self._fork())
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
        """Fork the helper before those forked so far, with a new carry pipe:
        the helper keeps its write end and the read end of the next helper's
        pipe, which this process held; this process keeps the new read end."""
        carry_r, carry_w = os.pipe()
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (carry_r, carry_w, request_r, request_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            self.carry_out = carry_w
            self._serve(request_r, reply_w, request_w, reply_r, carry_r)
        for fd in (request_r, reply_w, carry_w):  # so each reader sees EOF once the helper exits
            os.close(fd)
        if self.carry_in is not None:
            self.carry_in.close()
        self.carry_in = os.fdopen(carry_r, "rb")
        return pid, request_w, os.fdopen(reply_r, "rb")

    def _serve(self, request_fd: int, reply_fd: int, *run_fds: int):
        """Helper side: answer each request until the request pipe closes,
        then exit. Never returns; a reply it cannot send exits with code 1."""
        code = 1
        try:
            # drop the run process's ends of this helper's pipes and every
            # later helper's pipes, so each reader sees EOF as soon as the
            # one process that writes to it ends
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
        theta, batch size, batch starts) loads theta and gives {start: the
        batch's labels}."""
        if kind == "train":
            return self._train(*args)
        theta, step, starts = args
        load_trainable(self.template, theta)
        ids = self.eval_set.ids
        return {start: predict_labels(forward(self.template, ids[start:start + step]).data)
                for start in starts}

    def _train(self, snapshot, round_idx: int, group: list) -> dict:
        """{client id: (theta_k, loss), or None if it raised ClientError} for
        each piece in `group` (see `plan_training`), run in order, that ends
        its client's update. A piece that starts later takes its carry from
        the next process first; one that stops short sends its result, or the
        exception it raised, down this process's carry pipe instead. An
        exception other than ClientError is also raised here; the carry is
        taken even when an earlier piece raised, so none is left for the next
        round.
        """
        out = {}
        waiting = group[-1][0] if group and group[-1][1].start else None  # a carry to take
        try:
            for cid, steps in group:
                train_set = self.client_sets[cid]
                sends = steps.stop < sgd_steps(len(train_set), self.cfg.local_epochs,
                                               self.cfg.batch_size)
                try:
                    carry = None
                    if steps.start:
                        waiting = None  # taken here; the finally must not wait again
                        carry = self._take_carry(round_idx, cid)
                    ok, value = True, client_update(self.template, snapshot, train_set, self.cfg,
                                                    round_idx, cid, steps, carry)
                except Exception as exc:
                    ok, value = False, exc
                if sends:
                    self._send_carry(round_idx, cid, (ok, value))
                if not ok and not isinstance(value, ClientError):
                    raise value
                if not sends:
                    out[cid] = value if ok else None
        finally:
            if waiting is not None:
                with contextlib.suppress(Exception):
                    self._take_carry(round_idx, waiting)
        return out

    def _send_carry(self, round_idx: int, cid, carry: tuple):
        """Send (True, carry) or (False, exception) of cid's first steps to
        the preceding process."""
        try:
            data = pickle.dumps(carry)
        except Exception as exc:  # the tail must hear something, or it waits for good
            data = pickle.dumps((False, RoundError(
                f"round {round_idx}: client {cid}: its first steps' result cannot be sent: {exc}")))
        with contextlib.suppress(BrokenPipeError):  # the tail's process is gone; map says so
            _write_all(self.carry_out, data)

    def _take_carry(self, round_idx: int, cid):
        """The carry of cid's head from the next process; raises what the
        head raised, or RoundError if that process ended without sending."""
        try:
            ok, value = pickle.load(self.carry_in)
        except (EOFError, pickle.UnpicklingError):
            raise RoundError(f"round {round_idx}: client {cid}: the process running its "
                             f"first steps ended without passing them on") from None
        if not ok:
            raise value
        return value

    def map(self, label: str, kind: str, args: tuple, loads: dict, plan=None) -> dict:
        """{item: result} over every item of `loads` ({item: load}).

        `plan(loads, n_proc)`, `assign` by default, splits the items over
        n_proc = min(len(loads), helpers + 1) processes, at least 1;
        `plan_training` makes each group a list of (client id, steps)
        pieces. The i-th helper answers (kind, *args, group i) while the run
        process answers group 0 through the same `_answer`; their dicts are
        merged. A client that `plan_training` cut has its head in group i + 1
        and its tail in group i, so its result comes from group i, trained on
        from the carry that group i + 1 sends down their carry pipe. Every
        reply is received even if group 0 raises. An exception a helper
        raised is raised again here; a helper that dies before it replies (a
        signal, a nonzero exit, a short read) is reaped and raises
        RoundError naming `label` and its group.
        """
        groups = (plan or assign)(loads, max(1, min(len(loads), len(self.procs) + 1)))
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
        if self.carry_in is not None:
            self.carry_in.close()
            self.carry_in = None


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


def plan_training(sizes: dict, n_proc: int, epochs: int, batch: int) -> list[list]:
    """The training phase's groups for n_proc processes, given
    {client id: training records}: lists of (client id, range of its
    `sgd_steps`) pieces.

    A client's load is epochs x its records. `assign`'s groups, one whole
    piece (id, range(steps)) per client, stand unless the largest is more
    than one batch over the bound C = max(largest load, ceil(total /
    n_proc)); then McNaughton's wrap-around rule (Management Science 6(1),
    1959) reaches C: the clients are laid end to end in id order and the
    line is cut every C. A client that straddles the cut after group i is
    split at the step boundary nearest to where the cut falls in its load:
    its head, (id, range(0, h)), runs first in group i + 1, and its tail,
    (id, range(h, steps)), last in group i. An empty piece is dropped, but
    an empty client keeps its one piece, so that its ClientError is still
    reported. Since no load exceeds C, the head is due to end before the
    tail starts; each cut moves by at most half a batch, so no group ends
    more than one batch over C.
    """
    loads = {cid: epochs * n for cid, n in sizes.items()}
    groups = assign(loads, n_proc)
    bound = max(max(loads.values(), default=0), -(-sum(loads.values()) // n_proc))
    if max(sum(loads[cid] for cid in group) for group in groups) <= bound + batch:
        return [[(cid, range(sgd_steps(sizes[cid], epochs, batch))) for cid in group]
                for group in groups]
    groups = [[] for _ in range(n_proc)]
    start = 0
    for cid in sorted(loads):
        i = min(start // bound, n_proc - 1)
        start += loads[cid]
        n, h = sizes[cid], 0
        steps = sgd_steps(n, epochs, batch)
        past_cut = start - (i + 1) * bound  # the load due in group i + 1
        if past_cut > 0:
            epoch, offset = divmod(past_cut, n)  # the head ends `offset` records into `epoch`
            below = offset // batch * batch  # the step boundaries on either side of it
            above = min(below + batch, n)
            h = sgd_steps(n, epoch, batch) + offset // batch + (above - offset < offset - below)
        if h:
            groups[i + 1].append((cid, range(h)))
        if h < steps or not steps:
            groups[i].append((cid, range(h, steps)))
    return groups


def eval_batches(eval_set: EncodedSet) -> range:
    """Start offsets of the forward-only eval batches; the step is the batch
    size, EVAL_ROWS token rows at the width of the set's longest real row."""
    real = np.flatnonzero((eval_set.ids != PAD_ID).any(axis=0))
    width = int(real[-1]) + 1 if real.size else 1
    return range(0, len(eval_set), max(1, EVAL_ROWS // width))


def evaluate(theta: np.ndarray, helpers: Helpers) -> tuple[float, float]:
    """(accuracy, F1) of trainable vector theta on the helpers' eval set.

    The batches (`eval_batches`; forward trims padding columns per batch)
    are spread by `Helpers.map`, each weighted by its record count; each
    process that answers, the run process always, first loads theta into
    its template, and the labels are put back in batch order.
    """
    eval_set = helpers.eval_set
    starts = eval_batches(eval_set)
    labels = helpers.map("eval batches at records", "eval", (theta, starts.step),
                         {start: min(starts.step, len(eval_set) - start) for start in starts})
    m = confusion([p for start in starts for p in labels[start]], eval_set.labels.tolist())
    return accuracy(m), f1_binary(m)


def run_round(state: GlobalState, client_sets: dict, cfg: FedConfig,
              global_eval: EncodedSet, helpers: Helpers) -> GlobalState:
    """One global round: broadcast state.theta, local training, FedAvg, and
    `evaluate` of the new theta, which also loads it into state.model.

    `helpers` must have been started with state.model, client_sets, cfg and
    global_eval; `Helpers.map` spreads the clients by `plan_training`.
    Clients train on clones, so state.theta is only read.
    """
    t0 = time.perf_counter()
    helpers.check(template=state.model, client_sets=client_sets, cfg=cfg, eval_set=global_eval)
    round_idx = state.round_idx

    updates = helpers.map(f"round {round_idx}: clients", "train", (state.theta, round_idx),
                          {cid: len(s) for cid, s in client_sets.items()},
                          functools.partial(plan_training, epochs=cfg.local_epochs,
                                            batch=cfg.batch_size))
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
                  records, partition: PartitionSpec, eval_frac: float = 0.2) -> GlobalState:
    """Full pipeline: carve global eval, partition, initialize, run R rounds."""
    fed_cfg.validate()
    partition.validate()
    check_population(fed_cfg, partition)

    train_pool, global_eval_records = split_train_eval(
        records, eval_frac, rng.derive(fed_cfg.seed, "global_eval"))
    vocab = build_vocab([r.text for r in train_pool], model_cfg.vocab_size)
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

    processes = process_count(max(len(client_sets), len(eval_batches(global_eval))))
    state = GlobalState(theta=theta, model=am, vocab=vocab, processes=processes)
    with Helpers(processes - 1, am, client_sets, fed_cfg, global_eval) as helpers:
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
