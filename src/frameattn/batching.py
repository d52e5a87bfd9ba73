"""Batch-plan construction: time-sequential batches and the shuffled baseline.

Time-sequential plans keep each batch a chronological run of frames from a
single session; only the order in which batches are visited is re-randomized
per epoch (contents are epoch-invariant).  Shuffled plans permute frames
globally per epoch before chunking.  Both keep the final partial batch and
partition the frame set exactly once per epoch.  ``build_plan`` is the one
plan builder.  A run's strategy and batch size come from its ``TrainConfig``,
which rejects a strategy outside ``STRATEGIES``; in an ablation only the grid
sets them, never a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Frame
from .errors import ConfigError
from .seeding import TAG_BATCH, mix64

TIME_SEQUENTIAL = "time_sequential"
SHUFFLED = "shuffled"
STRATEGIES = (TIME_SEQUENTIAL, SHUFFLED)


@dataclass(frozen=True)
class BatchPlan:
    epoch: int
    strategy: str
    seed: int
    batches: tuple[tuple[int, ...], ...]


def _chunks(indices: Sequence[int], batch_size: int) -> list[tuple[int, ...]]:
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return [tuple(indices[s : s + batch_size]) for s in range(0, len(indices), batch_size)]


def canonical_batches(frames: Sequence[Frame], batch_size: int) -> list[tuple[int, ...]]:
    """Session-pure chronological runs of ``batch_size`` frames, in
    (session, time) order; the final partial batch of a session is kept."""
    by_session: dict[str, list[int]] = {}
    for i, f in enumerate(frames):
        by_session.setdefault(f.session_id, []).append(i)
    batches: list[tuple[int, ...]] = []
    for session in sorted(by_session):
        idx = sorted(by_session[session], key=lambda i: frames[i].chrono_index)
        batches += _chunks(idx, batch_size)
    return batches


def build_plan(
    strategy: str, frames: Sequence[Frame], batch_size: int, seed: int, epoch: int
) -> BatchPlan:
    """The epoch's plan: the canonical batches in an order permuted per
    epoch (time-sequential), or all frames permuted per epoch, then chunked
    (shuffled)."""
    rng = np.random.default_rng(mix64(seed, TAG_BATCH, epoch))
    if strategy == TIME_SEQUENTIAL:
        canonical = canonical_batches(frames, batch_size)
        batches = [canonical[i] for i in rng.permutation(len(canonical))]
    elif strategy == SHUFFLED:
        batches = _chunks(rng.permutation(len(frames)).tolist(), batch_size)
    else:
        raise ConfigError(f"unknown batching strategy '{strategy}' (expected one of {STRATEGIES})")
    return BatchPlan(epoch=epoch, strategy=strategy, seed=seed, batches=tuple(batches))
