import dataclasses

import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora import federation, rng
from fedlora.autodiff import Graph, Tensor
from fedlora.data import PartitionSpec, Record, make_shards, split_train_eval, synth_corpus
from fedlora.errors import ClientError, ConfigError, ProtocolError, RoundError
from fedlora.federation import (EncodedSet, FedConfig, GlobalState, Helpers, client_update,
                                comm_cost, encode_records, fedavg,
                                run_centralized, run_federated, run_round, sgd_step)
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import (PAD_ID, ModelConfig, build_vocab, forward, init_model, tokenize,
                           word_tokens)

from test_model import small_cfg

DESK_MODEL = dict(vocab_size=200, d_model=8, n_heads=2, n_layers=1,
                  ff_dim=16, max_seq_len=12, n_classes=2, seed=11)


def small_run(n=60, **fed_overrides):
    fed = dict(n_clients=2, rounds=2, local_epochs=1, eta=0.3, batch_size=8, seed=4)
    fed.update(fed_overrides)
    fed_cfg = FedConfig(**fed)
    records = synth_corpus(n, seed=21)
    return run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5),
                         fed_cfg, records,
                         PartitionSpec(n_clients=fed_cfg.n_clients, strategy="iid", seed=6))


# fedavg --------------------------------------------------------------------

def test_fedavg_identity_for_single_client():
    theta = np.array([1.0, 2.0, 3.0])
    out = fedavg([theta])
    assert np.array_equal(out, theta)
    assert out is not theta


def test_fedavg_mean():
    out = fedavg([np.array([1.0, 3.0]), np.array([3.0, 5.0])])
    assert np.array_equal(out, [2.0, 4.0])


def test_fedavg_idempotent_on_identical_vectors():
    theta = np.array([0.1, -0.7, 2.5])
    assert np.array_equal(fedavg([theta.copy() for _ in range(4)]), theta)


def test_fedavg_matches_brute_force_mean():
    gen = np.random.default_rng(0)
    for _ in range(20):
        thetas = [gen.normal(size=50) for _ in range(int(gen.integers(1, 6)))]
        brute = np.array([sum(t[i] for t in thetas) / len(thetas) for i in range(50)])
        assert np.abs(fedavg(thetas) - brute).max() < 1e-12
    for k in range(2, 9):  # the unit-weight mean is bit-equal to the plain mean
        thetas = [gen.normal(size=50) for _ in range(k)]
        assert fedavg(thetas).tobytes() == np.stack(thetas).mean(axis=0).tobytes()


def test_fedavg_linearity():
    gen = np.random.default_rng(1)
    thetas = [gen.normal(size=30) for _ in range(3)]
    scaled = fedavg([2.5 * t for t in thetas])
    assert np.abs(scaled - 2.5 * fedavg(thetas)).max() < 1e-12


def test_fedavg_permutation_invariant():
    gen = np.random.default_rng(2)
    thetas = [gen.normal(size=40) for _ in range(5)]
    a = fedavg(thetas)
    b = fedavg(thetas[::-1])
    assert np.abs(a - b).max() < 1e-12


def test_fedavg_weighted():
    out = fedavg([np.array([0.0]), np.array([3.0])], weights=[1, 2])
    assert out[0] == pytest.approx(2.0)


def test_fedavg_errors():
    with pytest.raises(ProtocolError):
        fedavg([])
    with pytest.raises(ProtocolError):
        fedavg([np.zeros(2), np.zeros(3)])
    with pytest.raises(ProtocolError):
        fedavg([np.zeros(2), np.zeros(2)], weights=[1.0, -1.0])


# local SGD -----------------------------------------------------------------

def test_sgd_step_hand_example():
    # loss (w - 3)^2 / 2 at w = 0: gradient is w - 3 = -3, one step of 0.1
    w = Tensor([[0.0]], requires_grad=True)
    shift = Tensor([[-3.0]])
    with Graph() as g:
        diff = ad.add(w, shift)
        loss = ad.scale(ad.matmul(diff, diff), 0.5)
    g.backward(loss)
    sgd_step([w], eta=0.1)
    assert w.data[0, 0] == pytest.approx(0.3)


def empty_set():
    return EncodedSet(ids=np.zeros((0, DESK_MODEL["max_seq_len"]), dtype=np.intp),
                      labels=np.array([], dtype=int))


def run_round_in_process(state, client_sets, cfg, global_eval):
    """run_round on helpers started on one usable core: every phase is one
    group, so nothing is forked and everything runs in this process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(federation, "usable_cores", lambda: 1)
        helpers = Helpers(state.model, client_sets, cfg, global_eval)
    with helpers:
        assert not helpers.procs
        return run_round(state, client_sets, cfg, global_eval, helpers)


def training_fixture():
    records = synth_corpus(24, seed=2)
    model_cfg = ModelConfig(**DESK_MODEL)
    base = init_model(model_cfg)
    am = attach_adapters(base, LoraConfig(rank=2, seed=3))
    vocab = build_vocab([r.text for r in records], model_cfg.vocab_size)
    return am, encode_records(records, vocab, model_cfg.max_seq_len)


def test_encode_records_is_one_id_matrix_whose_mask_is_not_pad():
    max_len = 12
    records = synth_corpus(40, seed=5) + [
        Record(id=900, text="", label=0),
        Record(id=901, text="zzz unseen words only", label=1),
        Record(id=902, text=" ".join(["word"] * 30), label=0),
    ]
    vocab = build_vocab([r.text for r in records[:20]], 200)
    encoded = encode_records(records, vocab, max_len)
    assert encoded.ids.dtype == np.intp and encoded.ids.shape == (len(records), max_len)
    assert np.array_equal(encoded.ids, [tokenize(r.text, vocab, max_len) for r in records])
    n_real = np.array([min(1 + len(word_tokens(r.text)), max_len) for r in records])
    assert np.array_equal(encoded.ids != PAD_ID, np.arange(max_len) < n_real[:, None])
    assert encoded.labels.tolist() == [r.label for r in records]
    assert encode_records([], vocab, max_len).ids.shape == (0, max_len)


def test_client_update_zero_eta_returns_snapshot():
    am, train = training_fixture()
    snapshot = extract_trainable(am)
    cfg = FedConfig(n_clients=1, rounds=1, local_epochs=1, eta=0.0, batch_size=8, seed=1)
    theta, _ = client_update(am, snapshot, train, cfg, round_idx=0, client_id=0)
    assert np.array_equal(theta, snapshot)


def test_fedconfig_rejects_zero_epochs_and_eta():
    with pytest.raises(ConfigError):
        FedConfig(local_epochs=0).validate()
    with pytest.raises(ConfigError):
        FedConfig(eta=0.0).validate()


@pytest.mark.parametrize("batch,epochs,steps", [(8, 1, 3), (5, 2, 10), (24, 3, 3), (100, 1, 1)])
def test_client_update_runs_e_times_ceil_n_over_b_steps(monkeypatch, batch, epochs, steps):
    am, train = training_fixture()  # 24 records
    seen = []  # (batch records, loss) per step
    real = federation.cross_entropy

    def spy(logits, labels):
        out = real(logits, labels)
        seen.append((len(labels), float(out.data[0, 0])))
        return out

    monkeypatch.setattr(federation, "cross_entropy", spy)
    cfg = FedConfig(n_clients=1, local_epochs=epochs, eta=0.3, batch_size=batch, seed=1)
    _, loss = client_update(am, extract_trainable(am), train, cfg, round_idx=0, client_id=0)
    assert len(seen) == steps
    last_epoch = seen[-(steps // epochs):]
    assert sum(n for n, _ in last_epoch) == len(train)  # a short last batch, not a dropped one
    assert loss == float(np.mean([value for _, value in last_epoch]))


def test_client_update_deterministic():
    am, train = training_fixture()
    snapshot = extract_trainable(am)
    cfg = FedConfig(n_clients=1, rounds=1, local_epochs=2, eta=0.3, batch_size=8, seed=1)
    t1, l1 = client_update(am, snapshot, train, cfg, round_idx=0, client_id=0)
    t2, l2 = client_update(am, snapshot, train, cfg, round_idx=0, client_id=0)
    assert np.array_equal(t1, t2)
    assert l1 == l2


def test_client_update_leaves_snapshot_and_template_untouched():
    am, train = training_fixture()
    snapshot = extract_trainable(am)
    snapshot_before = snapshot.copy()
    template_before = extract_trainable(am)
    cfg = FedConfig(n_clients=1, rounds=1, local_epochs=1, eta=0.5, batch_size=8, seed=1)
    theta, _ = client_update(am, snapshot, train, cfg, round_idx=0, client_id=0)
    assert not np.array_equal(theta, snapshot)  # it did train
    assert np.array_equal(snapshot, snapshot_before)
    assert np.array_equal(extract_trainable(am), template_before)


def test_client_update_empty_train_set():
    am, train = training_fixture()
    empty = empty_set()
    cfg = FedConfig(seed=1)
    with pytest.raises(ClientError):
        client_update(am, extract_trainable(am), empty, cfg, round_idx=0, client_id=0)


# rounds --------------------------------------------------------------------

def test_history_length_equals_rounds():
    state = small_run()
    assert state.round_idx == 2
    assert len(state.history) == 2


def test_round_report_bytes_match_comm_cost():
    state = small_run()
    per_direction = comm_cost(2, state.theta.size)
    for report in state.history:
        assert report.uplink_bytes == report.downlink_bytes == per_direction


def test_zero_eta_round_keeps_theta():
    # bypass FedConfig validation on purpose: eta=0 isolates the aggregation path
    state = small_run(eta=1e-300)
    records = synth_corpus(60, seed=21)
    fresh = run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5),
                          FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=1e-300,
                                    batch_size=8, seed=4),
                          records, PartitionSpec(n_clients=2, strategy="iid", seed=6))
    base = init_model(ModelConfig(**DESK_MODEL))
    theta0 = extract_trainable(attach_adapters(base, LoraConfig(rank=2, seed=5)))
    assert np.abs(fresh.theta - theta0).max() < 1e-290


def test_run_round_client_order_independent():
    am, train = training_fixture()
    theta = extract_trainable(am)
    cfg = FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    sets_a = {0: train, 1: train}
    sets_b = dict(reversed(list(sets_a.items())))
    out = []
    for sets in (sets_a, sets_b):
        state = GlobalState(theta=theta.copy(), model=am.clone())
        run_round_in_process(state, sets, cfg, train)
        out.append(state.theta)
    assert np.abs(out[0] - out[1]).max() < 1e-12


def test_run_round_all_clients_failed():
    am, train = training_fixture()
    empty = empty_set()
    state = GlobalState(theta=extract_trainable(am), model=am)
    with pytest.raises(RoundError):
        run_round_in_process(state, {0: empty}, FedConfig(seed=1), train)
    assert state.round_idx == 0 and not state.history


def test_skipped_client_excluded_from_average():
    am, train = training_fixture()
    empty = empty_set()
    cfg = FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    state = GlobalState(theta=extract_trainable(am), model=am.clone())
    run_round_in_process(state, {0: train, 1: empty}, cfg, train)
    report = state.history[0]
    assert report.client_losses[1] is None
    assert report.client_losses[0] is not None
    # uplink counts the one update that came back, downlink both broadcasts
    assert report.uplink_bytes == comm_cost(1, state.theta.size)
    assert report.downlink_bytes == comm_cost(2, state.theta.size)


def test_fed_clients_cannot_exceed_partition_population():
    records = synth_corpus(30, seed=1)
    with pytest.raises(ConfigError):
        run_federated(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5),
                      FedConfig(n_clients=3, rounds=1, local_epochs=1, eta=0.1,
                                batch_size=8, seed=2),
                      records, PartitionSpec(n_clients=2, strategy="iid", seed=3))


@pytest.mark.parametrize("epochs", [1, 3])
def test_centralized_equivalence(epochs):
    records = synth_corpus(50, seed=8)
    model_cfg = ModelConfig(**DESK_MODEL)
    lora_cfg = LoraConfig(rank=2, seed=5)
    fed_cfg = FedConfig(n_clients=1, rounds=1, local_epochs=epochs, eta=0.3,
                        batch_size=8, seed=9)
    federated = run_federated(model_cfg, lora_cfg, fed_cfg, records,
                              PartitionSpec(n_clients=1, strategy="iid", seed=9))
    central = run_centralized(model_cfg, lora_cfg, fed_cfg, records)
    assert np.abs(federated.theta - central.theta).max() < 1e-9


@pytest.mark.parametrize("cores", [1, 2])
def test_one_client_run_equals_a_direct_sgd_loop_bit_for_bit(monkeypatch, cores):
    # the same split, shard hold-out, encoding and per-(round, epoch)
    # shuffles as run_federated, trained by hand on one model: no helpers,
    # no client_update and no fedavg; 100 eval records make two eval
    # batches, so on 2 cores a helper is forked
    records = synth_corpus(500, seed=17)
    model_cfg, lora_cfg = ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5)
    fed = FedConfig(n_clients=1, rounds=3, local_epochs=2, eta=0.3, batch_size=16, seed=9)
    spec = PartitionSpec(n_clients=1, strategy="iid", seed=9)
    pool, _ = split_train_eval(records, 0.2, rng.derive(fed.seed, "global_eval"))
    vocab = build_vocab([r.text for r in pool], model_cfg.vocab_size)
    train = encode_records(make_shards(pool, spec, 0.2)[0].train, vocab, model_cfg.max_seq_len)
    am = attach_adapters(init_model(model_cfg), lora_cfg)
    params = am.trainable_parameters()
    for round_idx in range(fed.rounds):
        for epoch in range(fed.local_epochs):
            perm = rng.permutation(rng.derive(fed.seed, "batch", 0, round_idx, epoch), len(train))
            for start in range(0, len(train), fed.batch_size):
                idx = perm[start:start + fed.batch_size]
                ad.zero_grads(params)
                with Graph() as g:
                    loss = ad.cross_entropy(forward(am, train.ids[idx]), train.labels[idx])
                g.backward(loss)
                sgd_step(params, fed.eta)
    monkeypatch.setattr(federation, "usable_cores", lambda: cores)
    state = run_federated(model_cfg, lora_cfg, fed, records, spec, eval_frac=0.2)
    assert state.processes == cores
    assert state.theta.tobytes() == extract_trainable(am).tobytes()


def test_centralized_loss_decreases():
    records = synth_corpus(80, seed=3)
    state = run_centralized(ModelConfig(**DESK_MODEL), LoraConfig(rank=2, seed=5),
                            FedConfig(n_clients=1, rounds=4, local_epochs=1, eta=0.3,
                                      batch_size=8, seed=2),
                            records)
    losses = [r.client_losses[0] for r in state.history]
    assert losses[-1] < losses[0]


def test_weighted_aggregation_runs():
    state = small_run(aggregation="weighted_by_n")
    assert len(state.history) == 2


def test_comm_cost_arithmetic():
    assert comm_cost(3, 1024) == 3 * 1024 * 4 == 12_288
