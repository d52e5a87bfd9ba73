"""Training loop: AdamW with decoupled weight decay, reduce-on-plateau
scheduling, JSON-lines metrics, and binary checkpoints.

Runs are fully deterministic given their configs and seed: every stochastic
stream (init, dropout, batch order) derives from the seed, metrics carry no
timestamps, and checkpoints round-trip bit-exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .batching import STRATEGIES, TIME_SEQUENTIAL, build_plan, canonical_batches
from .data import Frame
from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .losses import LossConfig, MetricsAccumulator, MetricsReport, combined_loss
from .model import AttentionModel, ModelConfig
from .seeding import TAG_DROPOUT, mix64
from .tensor import Tensor

# v2: attention projections and experts stored as stacked tensors.
CHECKPOINT_MAGIC = "FRAMEATTN v2"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 1e-2
    plateau_patience: int = 10
    lr_factor: float = 0.5
    min_lr: float = 1e-6
    strategy: str = TIME_SEQUENTIAL
    seed: int = 0
    clip_norm: float = 0.0  # 0 disables clipping
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.plateau_patience < 1:
            raise ConfigError(f"plateau_patience must be >= 1, got {self.plateau_patience}")
        if self.weight_decay < 0 or self.min_lr <= 0 or self.clip_norm < 0:
            raise ConfigError("weight_decay/min_lr/clip_norm out of range")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")


class AdamW:
    """Adam with decoupled weight decay.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta,
    decay applied only to parameters in ``decay_keys`` (matrices, not biases
    or the blend logit).
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        decay_keys: set[str],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.decay_keys = decay_keys
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay and name in self.decay_keys:
                update = update + self.lr * self.weight_decay * p.data
            p.data -= update


class PlateauScheduler:
    """Halve (by ``factor``) the lr after ``patience`` epochs without a loss
    improvement of at least ``min_delta``; never below ``min_lr``."""

    def __init__(self, lr: float, patience: int, factor: float, min_lr: float, min_delta: float = 1e-6):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
        self.min_delta = min_delta
        self.best = float("inf")
        self.counter = 0

    def step(self, loss: float) -> float:
        if loss < self.best - self.min_delta:
            self.best = loss
            self.counter = 0
        else:
            self.counter += 1
            if self.counter >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.counter = 0
        return self.lr


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> None:
    total = 0.0
    for p in params.values():
        total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            p.grad *= scale


def _gather(frames: Sequence[Frame], indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    data = np.stack([frames[i].data for i in indices])
    labels = np.array([frames[i].label for i in indices], dtype=np.int64)
    return data, labels


def evaluate(
    model: AttentionModel,
    frames: Sequence[Frame],
    batch_size: int,
    loss_cfg: LossConfig,
    classes: int,
) -> tuple[float, MetricsReport]:
    """Eval-mode pass over chronological batches; returns mean loss and F1."""
    acc = MetricsAccumulator(classes)
    total_loss = 0.0
    with T.no_grad():
        for batch in canonical_batches(frames, batch_size):
            data, labels = _gather(frames, batch)
            trace = model.forward(data, training=False)
            loss = combined_loss(trace.logits, labels, loss_cfg)
            total_loss += loss.item() * len(batch)
            acc.update(trace.logits.data.argmax(axis=1), labels)
    return total_loss / max(1, len(frames)), acc.report()


def checkpoint_save(arrays: dict[str, np.ndarray], path: str | Path) -> None:
    """Header line then per-tensor records: a text line ``name rank extents``
    followed by the row-major little-endian float64 payload.  Written to a
    temporary file beside ``path`` and renamed over it, so a write that fails
    part-way leaves the previous checkpoint intact."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write((CHECKPOINT_MAGIC + "\n").encode("ascii"))
            for name, arr in arrays.items():
                arr = np.asarray(arr, dtype=np.float64)
                extents = " ".join(str(e) for e in arr.shape)
                header = f"{name} {arr.ndim}" + (f" {extents}" if extents else "") + "\n"
                fh.write(header.encode("ascii"))
                fh.write(arr.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def checkpoint_load(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"incompatible checkpoint version: expected '{CHECKPOINT_MAGIC}', got '{magic}'"
            )
        while True:
            line = fh.readline()
            if not line:
                break
            fields = line.decode("ascii", errors="replace").split()
            if len(fields) < 2:
                raise CheckpointError(f"malformed record header: {line!r}")
            name = fields[0]
            try:
                rank = int(fields[1])
                extents = tuple(int(v) for v in fields[2:])
            except ValueError:
                raise CheckpointError(f"malformed record header for '{name}'") from None
            if len(extents) != rank:
                raise CheckpointError(
                    f"record '{name}' declares rank {rank} but {len(extents)} extents"
                )
            if any(e < 0 for e in extents):
                raise CheckpointError(f"record '{name}' declares negative extents {extents}")
            if name in arrays:
                raise CheckpointError(f"duplicate record '{name}'")
            # exact integer product, checked against the bytes left before
            # anything is read, so huge extents cannot overflow or allocate
            nbytes = 8 * math.prod(extents)
            if nbytes > size - fh.tell():
                raise CheckpointError(f"truncated payload for record '{name}'")
            payload = fh.read(nbytes)
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(extents).copy()
    return arrays


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_val_f1: float
    test_report: MetricsReport
    test_loss: float
    checkpoint_path: Path
    metrics_path: Path


def train(
    model_cfg: ModelConfig,
    train_frames: Sequence[Frame],
    val_frames: Sequence[Frame],
    test_frames: Sequence[Frame],
    cfg: TrainConfig,
    out_dir: str | Path,
    dump_plans: bool = False,
) -> TrainResult:
    """Optimize for ``cfg.epochs`` epochs, checkpoint the best-validation-F1
    parameters, and evaluate that checkpoint on the test split.

    Appends one metrics record per (epoch, split) to metrics.jsonl; aborts
    with NumericError (epoch, batch, lr in the message) on a non-finite loss
    or parameter gradient, before the update.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "checkpoint.bin"
    plans_path = out / "plans.jsonl"

    model = AttentionModel(model_cfg, seed=cfg.seed)
    opt = AdamW(
        model.params,
        model.decay_keys,
        lr=cfg.lr,
        weight_decay=cfg.weight_decay,
    )
    sched = PlateauScheduler(cfg.lr, cfg.plateau_patience, cfg.lr_factor, cfg.min_lr)
    drop_rng = np.random.default_rng(mix64(cfg.seed, TAG_DROPOUT))

    history: list[dict] = []
    best_f1 = -1.0
    best_epoch = -1
    classes = model_cfg.classes

    def record(epoch: int, split: str, report: MetricsReport, loss: float) -> None:
        rec = {
            "epoch": epoch,
            "split": split,
            "mean_f1": report.mean_f1,
            "per_class_f1": [float(v) for v in report.per_class_f1],
            "loss": loss,
            "strategy": cfg.strategy,
        }
        history.append(rec)
        mfh.write(json.dumps(rec) + "\n")

    plans_cm = open(plans_path, "w") if dump_plans else contextlib.nullcontext()
    with open(metrics_path, "w") as mfh, plans_cm as pfh:
        for epoch in range(cfg.epochs):
            plan = build_plan(cfg.strategy, train_frames, cfg.batch_size, cfg.seed, epoch)
            if dump_plans:
                pfh.write(json.dumps(asdict(plan)) + "\n")
            acc = MetricsAccumulator(classes)
            loss_sum = 0.0
            for b, batch in enumerate(plan.batches):
                data, labels = _gather(train_frames, batch)
                trace = model.forward(data, training=True, rng=drop_rng)
                loss = combined_loss(trace.logits, labels, cfg.loss)
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(
                        f"non-finite training loss at epoch {epoch}, batch {b}, lr {opt.lr:g}"
                    )
                opt.zero_grad()
                T.backward(loss)
                for name, p in model.params.items():
                    if not np.isfinite(p.grad).all():
                        raise NumericError(
                            f"non-finite gradient of '{name}' at epoch {epoch}, batch {b}, "
                            f"lr {opt.lr:g}"
                        )
                if cfg.clip_norm > 0:
                    clip_gradients(model.params, cfg.clip_norm)
                opt.step()
                loss_sum += value * len(batch)
                acc.update(trace.logits.data.argmax(axis=1), labels)

            record(epoch, "train", acc.report(), loss_sum / max(1, len(train_frames)))
            val_loss, val_report = evaluate(model, val_frames, cfg.batch_size, cfg.loss, classes)
            record(epoch, "val", val_report, val_loss)
            opt.lr = sched.step(val_loss)

            if val_report.mean_f1 > best_f1:
                best_f1 = val_report.mean_f1
                best_epoch = epoch
                checkpoint_save(model.state_arrays(), checkpoint_path)

        model.load_state(checkpoint_load(checkpoint_path))
        test_loss, test_report = evaluate(model, test_frames, cfg.batch_size, cfg.loss, classes)
        record(best_epoch, "test", test_report, test_loss)

    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_f1=best_f1,
        test_report=test_report,
        test_loss=test_loss,
        checkpoint_path=checkpoint_path,
        metrics_path=metrics_path,
    )

