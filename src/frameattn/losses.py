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


class MetricsAccumulator:
    """Running TP/FP/FN counts over successive updates, and the per-class F1
    and unweighted mean F1 of the counts so far: the one place a split's
    scores are computed."""

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

    @property
    def per_class_f1(self) -> np.ndarray:
        """F1 of each class; a class with no true or predicted instance
        scores 0 (the 0/0 guard)."""
        denom = 2 * self.tp + self.fp + self.fn
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom > 0, 2.0 * self.tp / np.where(denom > 0, denom, 1), 0.0)

    @property
    def mean_f1(self) -> float:
        """Unweighted mean of ``per_class_f1`` over all ``classes``."""
        return float(self.per_class_f1.mean())
