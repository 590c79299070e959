import dataclasses

import numpy as np
import pytest

from fedlora import autodiff as ad
from fedlora.autodiff import Graph, Tensor
from fedlora.data import PartitionSpec, synth_corpus
from fedlora.errors import ClientError, ConfigError, ProtocolError, RoundError
from fedlora.federation import (EncodedSet, FedConfig, GlobalState, client_update,
                                comm_cost, encode_records, evaluate, fedavg,
                                run_centralized, run_federated, run_round, sgd_step)
from fedlora.lora import LoraConfig, attach_adapters, extract_trainable
from fedlora.model import ModelConfig, build_vocab, init_model

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


def training_fixture():
    records = synth_corpus(24, seed=2)
    model_cfg = ModelConfig(**DESK_MODEL)
    base = init_model(model_cfg)
    am = attach_adapters(base, LoraConfig(rank=2, seed=3))
    vocab = build_vocab(records, model_cfg.vocab_size)
    return am, encode_records(records, vocab, model_cfg.max_seq_len)


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
    empty = EncodedSet(ids=[], masks=[], labels=np.array([], dtype=int))
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
        state = GlobalState(theta=theta.copy(), round_idx=0, model=am.clone())
        run_round(state, sets, cfg, train)
        out.append(state.theta)
    assert np.abs(out[0] - out[1]).max() < 1e-12


def test_run_round_all_clients_failed():
    am, train = training_fixture()
    empty = EncodedSet(ids=[], masks=[], labels=np.array([], dtype=int))
    state = GlobalState(theta=extract_trainable(am), round_idx=0, model=am)
    with pytest.raises(RoundError):
        run_round(state, {0: empty}, FedConfig(seed=1), train)
    assert state.round_idx == 0 and not state.history


def test_skipped_client_excluded_from_average():
    am, train = training_fixture()
    empty = EncodedSet(ids=[], masks=[], labels=np.array([], dtype=int))
    cfg = FedConfig(n_clients=2, rounds=1, local_epochs=1, eta=0.3, batch_size=8, seed=1)
    state = GlobalState(theta=extract_trainable(am), round_idx=0, model=am.clone())
    run_round(state, {0: train, 1: empty}, cfg, train)
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
