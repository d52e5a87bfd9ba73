"""Classification losses and the mean-F1 evaluation metric.

The training objective blends standard cross-entropy with a focal term that
down-weights easy examples:

    CE  = mean_b( -log p_t )
    FL  = mean_b( -beta * (1 - p_t)^gamma * log p_t )
    L   = (1 - lam) * CE + lam * FL

where p_t is the predicted probability of the true class.  The whole blend is
one graph node, ``tensor.focal_cross_entropy``: it clamps p_t at
``tensor.LOG_FLOOR`` (1e-12) before the log, so the loss and its gradient stay
finite as p_t -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    """Blend weight and focal parameters.

    ``beta`` is the focal scaling factor (often written alpha in focal-loss
    literature; renamed here to avoid clashing with the attention blend
    parameter) and ``gamma`` the focusing exponent.
    """

    lam: float = 0.5
    beta: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"loss lam must be in [0, 1], got {self.lam}")
        if self.beta <= 0.0:
            raise ConfigError(f"loss beta must be > 0, got {self.beta}")
        if self.gamma < 0.0:
            raise ConfigError(f"loss gamma must be >= 0, got {self.gamma}")


def combined_loss(logits: Tensor, labels: np.ndarray, config: LossConfig) -> Tensor:
    """(1 - lam) * cross-entropy + lam * focal, as one graph node."""
    if logits.ndim != 2:
        raise DataError(f"logits must be (batch, classes), got shape {logits.shape}")
    n, classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch size {n}")
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"label {labels[i]} out of range [0, {classes}) at frame {i}")
    return T.focal_cross_entropy(logits, labels, config.lam, config.beta, config.gamma)


@dataclass
class MetricsReport:
    """Per-class confusion counts and F1 scores plus the unweighted mean."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    per_class_f1: np.ndarray
    mean_f1: float

    @property
    def classes(self) -> int:
        return len(self.tp)


class MetricsAccumulator:
    """Running TP/FP/FN counts over successive updates."""

    def __init__(self, classes: int):
        if classes < 1:
            raise ConfigError(f"classes must be >= 1, got {classes}")
        self.classes = classes
        self.tp = np.zeros(classes, dtype=np.int64)
        self.fp = np.zeros(classes, dtype=np.int64)
        self.fn = np.zeros(classes, dtype=np.int64)

    def update(self, predictions: np.ndarray, labels: np.ndarray) -> None:
        predictions = np.asarray(predictions)
        labels = np.asarray(labels)
        if predictions.shape != labels.shape:
            raise DataError(
                f"predictions shape {predictions.shape} != labels shape {labels.shape}"
            )
        for arr, name in ((predictions, "prediction"), (labels, "label")):
            bad = (arr < 0) | (arr >= self.classes)
            if bad.any():
                i = int(np.argmax(bad))
                raise DataError(
                    f"{name} {arr[i]} out of range [0, {self.classes}) at frame {i}"
                )
        hit = predictions == labels
        self.tp += np.bincount(labels[hit], minlength=self.classes)
        self.fp += np.bincount(predictions[~hit], minlength=self.classes)
        self.fn += np.bincount(labels[~hit], minlength=self.classes)

    def report(self) -> MetricsReport:
        denom = 2 * self.tp + self.fp + self.fn
        with np.errstate(divide="ignore", invalid="ignore"):
            f1 = np.where(denom > 0, 2.0 * self.tp / np.where(denom > 0, denom, 1), 0.0)
        return MetricsReport(
            tp=self.tp.copy(),
            fp=self.fp.copy(),
            fn=self.fn.copy(),
            per_class_f1=f1,
            mean_f1=float(f1.mean()),
        )


def mean_f1(predictions: np.ndarray, labels: np.ndarray, classes: int) -> MetricsReport:
    """Unweighted mean over all ``classes`` of per-class F1.

    Classes with no true or predicted instances contribute 0 to the average
    (the 0/0 guard), but still count in the divisor.
    """
    acc = MetricsAccumulator(classes)
    acc.update(np.asarray(predictions), np.asarray(labels))
    return acc.report()
