"""Binary classification metrics (positive class = 1, stressful).

Degenerate F1 conventions: 1.0 when the confusion matrix has no positives
anywhere (perfect on an all-negative set); 0.0 when tp = 0 but errors exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ProtocolError


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(preds, golds) -> ConfusionMatrix:
    preds = list(preds)
    golds = list(golds)
    if len(preds) != len(golds):
        raise ProtocolError(f"got {len(preds)} predictions for {len(golds)} gold labels")
    pairs = list(zip(preds, golds))
    for p, g in pairs:
        if p not in (0, 1) or g not in (0, 1):
            raise DataError(f"labels must be 0 or 1, got pred={p} gold={g}")
    return ConfusionMatrix(tp=pairs.count((1, 1)), fp=pairs.count((1, 0)),
                           fn=pairs.count((0, 1)), tn=pairs.count((0, 0)))


def accuracy(m: ConfusionMatrix) -> float:
    if m.total == 0:
        raise DataError("accuracy of an empty confusion matrix is undefined")
    return (m.tp + m.tn) / m.total


def f1_binary(m: ConfusionMatrix) -> float:
    if m.tp == 0:
        return 1.0 if (m.fp == 0 and m.fn == 0) else 0.0
    precision = m.tp / (m.tp + m.fp)
    recall = m.tp / (m.tp + m.fn)
    return 2.0 * precision * recall / (precision + recall)


def predict_labels(logits: np.ndarray) -> list[int]:
    """Argmax with ties broken toward class 0, for reproducibility."""
    logits = np.asarray(logits)
    return (logits[:, 1] > logits[:, 0]).astype(int).tolist()
