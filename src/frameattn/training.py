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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .batching import STRATEGIES, TIME_SEQUENTIAL, build_plan, canonical_batches
from .data import Frame
from .errors import CheckpointError, ConfigError, NumericError
from .losses import LossConfig, MetricsAccumulator, combined_loss
from .model import AttentionModel, ModelConfig
from .seeding import TAG_DROPOUT, mix64
from .tensor import Tensor

# v3: only the parameters of the stages a model runs, and each expert's two
# layers packed as moe.w and moe.b (v2 kept moe.w1/b1/w2/b2 and every stage).
# A frame-local cell (inter off) holds mh.wv, its value projection; an
# older v3 file of such a cell holds mh.wqkv, and load_state refuses it
# naming both.
CHECKPOINT_MAGIC = "FRAMEATTN v3"


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
        if self.min_lr > self.lr:
            raise ConfigError(f"min_lr ({self.min_lr}) must be <= lr ({self.lr})")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got '{self.strategy}'")


class AdamW:
    """Adam with decoupled weight decay.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps) - lr * wd * theta,
    decay applied only to parameters in ``decay_keys`` (matrices, not biases
    or the blend logit).  The moment decays and eps are Adam's defaults.
    One store: values, gradients, ``m`` and ``v`` are flat vectors, the
    ``decay_keys`` parameters first, and each parameter's ``.data`` and
    ``.grad`` are views of its slice."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(
        self,
        params: dict[str, Tensor],
        decay_keys: set[str],
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        order = [p for k, p in params.items() if k in decay_keys]
        self.decayed = sum(p.data.size for p in order)
        order += [p for k, p in params.items() if k not in decay_keys]
        self.data = np.concatenate([p.data.ravel() for p in order])
        self.grad = np.concatenate([p.grad.ravel() for p in order])
        self.m, self.v = np.zeros_like(self.data), np.zeros_like(self.data)
        ends = np.cumsum([p.data.size for p in order])[:-1]
        for p, data, grad in zip(order, np.split(self.data, ends), np.split(self.grad, ends)):
            p.data, p.grad = data.reshape(p.data.shape), grad.reshape(p.data.shape)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * self.grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * self.grad * self.grad
        update = self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        if self.weight_decay:
            update[: self.decayed] += self.lr * self.weight_decay * self.data[: self.decayed]
        self.data -= update


class PlateauScheduler:
    """Halve (by ``factor``) the lr after ``patience`` epochs without a loss
    improvement of at least ``min_delta``; never below ``min_lr``."""

    min_delta = 1e-6

    def __init__(self, lr: float, patience: int, factor: float, min_lr: float):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_lr = min_lr
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


def clip_gradients(grad: np.ndarray, max_norm: float) -> None:
    """Scale the flat ``grad`` in place to norm ``max_norm`` if above it; 0
    disables.  A pairwise sum, not ``grad @ grad``: ddot varies with threads."""
    norm = float((grad * grad).sum()) ** 0.5
    if norm > max_norm > 0:
        grad *= max_norm / norm


def _gather(frames: Sequence[Frame], indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    data = np.stack([frames[i].data for i in indices])
    labels = np.array([frames[i].label for i in indices], dtype=np.int64)
    return data, labels


# The smallest eval pass that runs on workers (see ``evaluate``): its
# batches, and the entries of one batch's (frames, window, d_model) map.
CONCURRENT_MIN_BATCHES = 16
CONCURRENT_MIN_FEATURES = 196_608


@contextlib.contextmanager
def _batch_map(concurrent: bool):
    """Yields a map over independent batch jobs whose results come in job
    order.  With ``concurrent`` and a known BLAS thread count W > 1, it runs
    them on W worker threads with BLAS held at 1 thread per call; on leaving,
    pending jobs are cancelled, running ones waited for, and the count put
    back.  Otherwise it is ``map``, on the calling thread.

    Measured against the alternatives on 2 cores: an eval_long-size pass read
    9,556 frames/s on workers at 1 BLAS thread and 5,886 at 2 (medians of 6).
    Every pass of >= 2 large batches on workers raised train_default's peak
    RSS from 129 to 171 MB (per-thread malloc arenas); one arena
    (M_ARENA_MAX 1) kept it flat at 15 % fewer eval frames/s."""
    hooks = T.blas_threads() if concurrent else None
    workers = hooks[0]() if hooks else 1
    if workers < 2:
        yield map
        return
    pool = ThreadPoolExecutor(workers)
    hooks[1](1)
    try:
        yield pool.map
    finally:
        pool.shutdown(cancel_futures=True)
        hooks[1](workers)


def evaluate(
    model: AttentionModel,
    frames: Sequence[Frame],
    batch_size: int,
    loss_cfg: LossConfig,
    classes: int,
) -> tuple[float, MetricsAccumulator]:
    """Eval-mode pass over chronological batches; returns the mean loss and
    the accumulated counts, which give the F1 scores.

    The batches share no state.  A pass of at least CONCURRENT_MIN_BATCHES
    batches, each with a feature map (frames x window x d_model) of at least
    CONCURRENT_MIN_FEATURES entries, runs on ``_batch_map``'s workers, so its
    loss and counts equal the calling thread's at 1 BLAS thread.  Any other
    pass runs on the calling thread with BLAS as it is; at d128 its logits
    then differ between 1 and 2 BLAS threads at some batch sizes (B 100, 121
    and 127 on one OpenBLAS build; ROADMAP item 15).

    The rule is where the workers paid on 2 cores at 2 BLAS threads: the
    pass time on workers over that on the calling thread, median of 5
    alternated passes per point, window 24.  Over the pass length:

        batches      5     8    12    16    24    32    48    64
        d128/B128  0.98  0.95  0.85  0.87  0.82  0.74  0.75  0.79
        d32/B32    1.02  1.32  1.05  1.13  1.12  1.02  0.95  1.15

    Over the feature map, at 32 batches: 0.67-0.81 from 196,608 entries
    (d16/B512, d32/B256, d64/B128, d128/B64, d128/B128), 0.92-0.98 at
    98,304 (d32/B128, d64/B64, d128/B32), 0.97-0.99 below (d16/B128,
    d32/B32).  Small batches are mostly interpreter work, which one thread
    runs at a time.  The feature-map clause keeps a desk run's 16-batch
    d32/B32 validation pass on the calling thread."""
    batches = canonical_batches(frames, batch_size)

    def run(batch: tuple[int, ...]) -> tuple[float, np.ndarray, np.ndarray]:
        data, labels = _gather(frames, batch)
        logits = model.forward(data, training=False).logits
        loss = combined_loss(logits, labels, loss_cfg)
        return loss.item(), logits.data.argmax(axis=1), labels

    acc = MetricsAccumulator(classes)
    total_loss = 0.0
    concurrent = (
        len(batches) >= CONCURRENT_MIN_BATCHES
        and batch_size * model.cfg.window_len * model.cfg.d_model >= CONCURRENT_MIN_FEATURES
    )
    with T.no_grad(), _batch_map(concurrent) as run_all:
        for loss, predictions, labels in run_all(run, batches):
            total_loss += loss * len(labels)
            acc.update(predictions, labels)
    return total_loss / max(1, len(frames)), acc


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
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
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
    """A run's metrics records, as written to metrics.jsonl: one per (epoch,
    split), the last the test split's at the best epoch.  Every score is a
    field of a record, and the files are fixed names in the run directory,
    so nothing else is kept; the class stays so callers read ``.history``."""

    history: list[dict]


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

    Appends one metrics record per (epoch, split) to metrics.jsonl, each
    line flushed as it is written, so a killed run keeps them; aborts
    with NumericError (epoch, batch, lr in the message) on a non-finite loss
    or parameter gradient, before the update.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.jsonl"
    checkpoint_path = out / "checkpoint.bin"
    plans_path = out / "plans.jsonl"

    model = AttentionModel(model_cfg, seed=cfg.seed)
    opt = AdamW(model.params, model.decay_keys, lr=cfg.lr, weight_decay=cfg.weight_decay)
    sched = PlateauScheduler(cfg.lr, cfg.plateau_patience, cfg.lr_factor, cfg.min_lr)
    drop_rng = np.random.default_rng(mix64(cfg.seed, TAG_DROPOUT))

    history: list[dict] = []
    best_f1 = -1.0
    best_epoch = -1
    classes = model_cfg.classes

    def record(epoch: int, split: str, acc: MetricsAccumulator, loss: float) -> None:
        rec = {
            "epoch": epoch,
            "split": split,
            "mean_f1": acc.mean_f1,
            "per_class_f1": [float(v) for v in acc.per_class_f1],
            "loss": loss,
            "strategy": cfg.strategy,
        }
        history.append(rec)
        mfh.write(json.dumps(rec) + "\n")

    plans_path.unlink(missing_ok=True)  # a reused run directory keeps no stale plans
    plans_cm = open(plans_path, "w", buffering=1) if dump_plans else contextlib.nullcontext()
    with open(metrics_path, "w", buffering=1) as mfh, plans_cm as pfh:
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
                if not np.isfinite(opt.grad).all():
                    name = next(k for k, p in model.params.items() if not np.isfinite(p.grad).all())
                    raise NumericError(
                        f"non-finite gradient of '{name}' at epoch {epoch}, batch {b}, "
                        f"lr {opt.lr:g}"
                    )
                if cfg.clip_norm > 0:
                    clip_gradients(opt.grad, cfg.clip_norm)
                opt.step()
                loss_sum += value * len(batch)
                acc.update(trace.logits.data.argmax(axis=1), labels)

            record(epoch, "train", acc, loss_sum / max(1, len(train_frames)))
            val_loss, val_acc = evaluate(model, val_frames, cfg.batch_size, cfg.loss, classes)
            record(epoch, "val", val_acc, val_loss)
            opt.lr = sched.step(val_loss)

            if val_acc.mean_f1 > best_f1:
                best_f1 = val_acc.mean_f1
                best_epoch = epoch
                checkpoint_save(model.state_arrays(), checkpoint_path)

        model.load_state(checkpoint_load(checkpoint_path))
        test_loss, test_acc = evaluate(model, test_frames, cfg.batch_size, cfg.loss, classes)
        record(best_epoch, "test", test_acc, test_loss)

    return TrainResult(history)

