import numpy as np
import pytest

from fedlora.errors import DataError, ProtocolError
from fedlora.metrics import ConfusionMatrix, accuracy, confusion, f1_binary, predict_labels


def test_confusion_basic():
    m = confusion([1, 0], [1, 0])
    assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 0, 0)


def test_confusion_all_false_positives():
    m = confusion([1, 1], [0, 0])
    assert m.fp == 2 and m.tp == 0


def test_confusion_length_mismatch():
    with pytest.raises(ProtocolError):
        confusion([1], [1, 0])


def test_confusion_rejects_a_label_other_than_0_or_1():
    with pytest.raises(DataError, match="labels must be 0 or 1, got pred=2 gold=0"):
        confusion([2], [0])


def test_confusion_matches_naive_recount():
    gen = np.random.default_rng(0)
    preds = gen.integers(0, 2, size=1000).tolist()
    golds = gen.integers(0, 2, size=1000).tolist()
    m = confusion(preds, golds)
    assert m.tp == sum(p == 1 and g == 1 for p, g in zip(preds, golds))
    assert m.fp == sum(p == 1 and g == 0 for p, g in zip(preds, golds))
    assert m.fn == sum(p == 0 and g == 1 for p, g in zip(preds, golds))
    assert m.tn == sum(p == 0 and g == 0 for p, g in zip(preds, golds))
    assert m.total == 1000


def test_f1_hand_value():
    assert f1_binary(ConfusionMatrix(tp=2, fp=1, fn=1, tn=0)) == pytest.approx(2 / 3)


def test_f1_degenerate_conventions():
    assert f1_binary(ConfusionMatrix(tp=0, fp=0, fn=0, tn=5)) == 1.0
    assert f1_binary(ConfusionMatrix(tp=0, fp=3, fn=0, tn=0)) == 0.0
    assert f1_binary(ConfusionMatrix(tp=0, fp=0, fn=2, tn=0)) == 0.0


def test_accuracy_values():
    assert accuracy(ConfusionMatrix(tp=5, tn=5)) == 1.0
    assert accuracy(ConfusionMatrix(tp=1, tn=1, fp=1, fn=1)) == 0.5


def test_accuracy_empty_matrix():
    with pytest.raises(DataError):
        accuracy(ConfusionMatrix())


def test_metrics_stay_in_unit_interval():
    gen = np.random.default_rng(1)
    for _ in range(200):
        tp, fp, fn, tn = (int(x) for x in gen.integers(0, 20, size=4))
        if tp + fp + fn + tn == 0:
            continue
        m = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
        assert 0.0 <= accuracy(m) <= 1.0
        assert 0.0 <= f1_binary(m) <= 1.0


def test_f1_symmetric_when_fp_equals_fn():
    a = f1_binary(ConfusionMatrix(tp=4, fp=3, fn=3, tn=2))
    b = f1_binary(ConfusionMatrix(tp=4, fp=3, fn=3, tn=9))
    assert a == b  # tn never enters F1


def test_metrics_shuffle_invariant():
    gen = np.random.default_rng(2)
    preds = gen.integers(0, 2, size=100).tolist()
    golds = gen.integers(0, 2, size=100).tolist()
    perm = gen.permutation(100)
    m1 = confusion(preds, golds)
    m2 = confusion([preds[i] for i in perm], [golds[i] for i in perm])
    assert accuracy(m1) == accuracy(m2)
    assert f1_binary(m1) == f1_binary(m2)


def test_argmax_tie_predicts_class_zero():
    assert predict_labels(np.array([[0.3, 0.3], [0.1, 0.2], [0.5, 0.1]])) == [0, 1, 0]
