"""Workloads of the frameattn benchmark: inputs, the timed loop and the checks.

Each workload is one closed-loop caller in its own process. It writes its
inputs (CSV sessions, and for ``eval_long`` a checkpoint) from the seed in
untimed preparation, then repeats *units*. A unit is what one full
``frameattn train`` or ``frameattn eval`` does, driven through the public API:
``data.load_recordings``, ``data.prepare_splits``, ``training.train`` or
``training.checkpoint_load`` + ``AttentionModel`` + ``training.evaluate``.

The untraced run hooks only the two boundary calls (``Clock``); every other
hook belongs to the traced run in ``tracer.py``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from frameattn import data, training
from frameattn.losses import LossConfig
from frameattn.model import AttentionModel, ModelConfig

HERE = Path(__file__).resolve().parent
WINDOW = data.WindowSpec(window=24, step=12)
SETUP_REPS = 3  # set-up-only repetitions before and after the units
LOSS_RTOL = 1e-7  # float64 loss/F1 drift a summation-order refactor may cause


@dataclass(frozen=True)
class Workload:
    train: bool  # True: a training.train run; False: one training.evaluate pass
    sessions: int
    session_len: int
    d_model: int
    batch_size: int
    epochs: int = 0
    unit_s: float = 1.0  # a first unit, then round(--seconds / unit_s) later ones (at least one)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    # 6 x 553 frames, 4 train sessions -> 2,212 train frames, 20 steps/epoch.
    "train_default": Workload(True, 6, 6656, 128, 128, epochs=5, unit_s=24),
    # 4 x 249 = 996 train frames at B=32 -> 32 steps/epoch.
    "train_small": Workload(True, 6, 3000, 32, 32, epochs=24, unit_s=8),
    # 8 x 1,999 = 15,992 frames, 128 eval batches per pass.
    "eval_long": Workload(False, 8, 24000, 128, 128, unit_s=8),
}

# The same code paths at a size that runs in seconds; used by the tests.
TINY = {
    "train_default": Workload(True, 3, 240, 16, 16, epochs=2, unit_s=0.05),
    "train_small": Workload(True, 3, 240, 16, 8, epochs=2, unit_s=0.05),
    "eval_long": Workload(False, 3, 400, 16, 16, unit_s=0.03),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_frames_per_s": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "epoch_s": "s",
    "eval_frames_per_s": "frames/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def model_config(w: Workload, classes: int) -> ModelConfig:
    return ModelConfig(
        window_len=WINDOW.window, channels=3, classes=classes, d_model=w.d_model
    )


def prepare(w: Workload, seed: int, inputs: Path) -> None:
    """Untimed: write the seed's CSV sessions and, for eval, a fixed checkpoint
    (the freshly initialised model of that seed)."""
    recs = data.generate_synthetic(
        data.SynthConfig(
            sessions=w.sessions, session_len=w.session_len, window=WINDOW.window, seed=seed
        )
    )
    manifest = {"seed": seed, "sample_rate": 1.0, "sessions": [r.session_id for r in recs]}
    data.write_sessions(recs, inputs / "data", manifest)
    if not w.train:
        classes = max(int(r.labels.max()) for r in recs) + 1
        model = AttentionModel(model_config(w, classes), seed=seed)
        training.checkpoint_save(model.state_arrays(), inputs / "checkpoint.bin")


def train_unit(w: Workload, seed: int, inputs: Path, out: Path) -> tuple[list, int]:
    """One ``frameattn train``; returns (digest, frames seen by the train loop)."""
    recs = data.load_recordings(inputs / "data")
    splits = data.prepare_splits(recs, WINDOW)
    cfg = training.TrainConfig(epochs=w.epochs, batch_size=w.batch_size, seed=seed)
    result = training.train(
        model_config(w, splits.classes), splits.train, splits.val, splits.test, cfg, out
    )
    digest = [[r["epoch"], r["split"], r["loss"], r["mean_f1"]] for r in result.history]
    return digest, w.epochs * len(splits.train)


def eval_unit(w: Workload, seed: int, inputs: Path, out: Path) -> tuple[list, int]:
    """One ``frameattn eval`` over every frame; returns (digest, frames)."""
    recs = data.load_recordings(inputs / "data")
    splits = data.prepare_splits(recs, WINDOW)
    arrays = training.checkpoint_load(inputs / "checkpoint.bin")
    model = AttentionModel(model_config(w, splits.classes), seed=seed)
    model.load_state(arrays)
    frames = splits.train + splits.val + splits.test
    loss, report = training.evaluate(model, frames, w.batch_size, LossConfig(), splits.classes)
    return [[0, "all", loss, report.mean_f1]], len(frames)


class Abort(Exception):
    """Raised at the first forward of a set-up-only repetition."""


class Clock:
    """The untraced run's only hooks: an entry timestamp on each
    ``AttentionModel.forward`` call, and entry/exit on ``training.evaluate``."""

    def __init__(self, w: Workload):
        self.main_training = w.train
        self.forwards: list[tuple[float, bool]] = []
        self.evals: list[tuple[float, float, int]] = []
        self.abort = False
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, wrapper_for) -> None:
        orig = owner.__dict__[name]
        self._saved.append((owner, name, orig))
        setattr(owner, name, wrapper_for(orig))

    def install(self) -> None:
        self.patch(AttentionModel, "forward", self._wrap_forward)
        self.patch(training, "evaluate", self._wrap_evaluate)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def _wrap_forward(self, orig):
        def forward(model, frames, **kw):
            self.forwards.append((time.perf_counter(), kw.get("training", False)))
            if self.abort:
                raise Abort
            return orig(model, frames, **kw)

        return forward

    def _wrap_evaluate(self, orig):
        def evaluate(model, frames, *args, **kw):
            start = time.perf_counter()
            result = orig(model, frames, *args, **kw)
            self.evals.append((start, time.perf_counter(), len(frames)))
            return result

        return evaluate

    def take(self) -> tuple[list, list]:
        forwards, evals = self.forwards, self.evals
        self.forwards, self.evals = [], []
        return forwards, evals


@dataclass
class Unit:
    start: float
    end: float
    forwards: list
    evals: list
    digest: list
    frames: int

    @property
    def setup(self) -> float:
        return self.forwards[0][0] - self.start

    def steps(self, main_training: bool) -> list[float]:
        """Main-loop step times: from one main forward entry to the next event.

        Train workloads: training-mode forwards, and an evaluate entry ends
        the epoch's last step. ``eval_long``: the forwards inside evaluate,
        and an evaluate exit ends a pass's last step.
        """
        marks = [t for t, mode in self.forwards if mode == main_training]
        ends = [e[0] if main_training else e[1] for e in self.evals]
        events = sorted(marks + ends)
        out = []
        for m in marks:
            i = bisect.bisect_right(events, m)
            if i < len(events):
                out.append(events[i] - m)
        return out

    def epochs(self, main_training: bool) -> list[float]:
        """Training epochs including their validation pass, or eval passes."""
        if not main_training:
            return [e[1] - e[0] for e in self.evals]
        val_exits = [e[1] for e in self.evals[:-1]]  # the last evaluate is the test pass
        first = next(t for t, mode in self.forwards if mode)
        return [b - a for a, b in zip([first] + val_exits, val_exits)]


def run_units(w: Workload, seed: int, seconds: float, clock: Clock, inputs: Path, out: Path):
    """Run a first unit and ``seconds / w.unit_s`` later units (at least one),
    between two batches of set-up-only repetitions.

    The first unit runs as a fresh ``frameattn train`` or ``eval`` process
    does: its heap grows to the working size and the GC-held graphs pause it.
    The later units run warm. The unit count does not depend on measured
    speed, so the parent and a change do the same work. The set-ups bracket
    the units because the machine's speed drifts over seconds.
    Returns (set-up times, units)."""
    unit_fn = train_unit if w.train else eval_unit

    def setups(n: int) -> list[float]:
        times = []
        clock.abort = True
        for _ in range(n):
            start = time.perf_counter()
            try:
                unit_fn(w, seed, inputs, out)
            except Abort:
                pass
            forwards, _ = clock.take()
            times.append(forwards[0][0] - start)
        clock.abort = False
        return times

    before = setups(SETUP_REPS)
    units: list[Unit] = []
    for _ in range(1 + max(1, round(seconds / w.unit_s))):
        start = time.perf_counter()
        digest, frames = unit_fn(w, seed, inputs, out)
        end = time.perf_counter()
        units.append(Unit(start, end, *clock.take(), digest, frames))
    return before + setups(SETUP_REPS), units


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(w: Workload, setups: list[float], units: list[Unit]) -> tuple[dict, dict, dict]:
    """The end-to-end metrics (name -> value), their sample counts, and the
    first unit's wall time and p90 step beside the later units'.

    ``wall_s`` is the first unit's: the fresh-process run a user sees, which
    pays the heap growth and GC pauses of a cold start. The step and
    throughput metrics come from the later, warm units: the first unit's p90
    step sits on the edge of its pause tail, and its quartiles across runs lie
    a quarter of its median apart, so it is only recorded. ``setup_s`` counts
    every set-up.
    """
    first, later = units[0], units[1:]
    steps = [s for u in later for s in u.steps(w.train)]
    epochs = [e for u in later for e in u.epochs(w.train)]
    evals = [e for u in later for e in u.evals]
    all_setups = setups + [u.setup for u in units]
    values = {
        "setup_s": statistics.median(all_setups),
        "train_frames_per_s": sum(u.frames for u in later) / sum(steps),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * percentile(steps, 0.9),
        "epoch_s": statistics.median(epochs),
        "eval_frames_per_s": sum(e[2] for e in evals) / sum(e[1] - e[0] for e in evals),
        "wall_s": first.end - first.start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(all_setups),
        "train_frames_per_s": len(steps),
        "step_ms_p50": len(steps),
        "step_ms_p90": len(steps),
        "step_ms_p90.beyond": len(steps) - math.ceil(0.9 * len(steps)),
        "epoch_s": len(epochs),
        "eval_frames_per_s": len(evals),
        "wall_s": 1,
        "peak_rss_mb": 1,
    }
    compared = {
        "first": {
            "wall_s": values["wall_s"],
            "step_ms_p90": 1e3 * percentile(first.steps(w.train), 0.9),
        },
        "later": {
            "wall_s": statistics.median(u.end - u.start for u in later),
            "step_ms_p90": values["step_ms_p90"],
        },
    }
    return values, counts, compared


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def verify(name: str, size: str, seed: int, digests: list[list]) -> tuple[int, int, bool]:
    """Check every unit's digest record; returns (attempted, failed, referenced).

    The committed reference (from the seed commit) is used where one exists
    for this workload, size and seed; otherwise every unit must reproduce the
    first unit's digest. A non-finite loss or F1 is always a failure.
    """
    ref = load_reference().get(size, {}).get(name, {}).get(str(seed))
    base = ref if ref is not None else digests[0]
    attempted = failed = 0
    for digest in digests:
        attempted += max(len(digest), len(base))
        failed += abs(len(digest) - len(base))
        for got, want in zip(digest, base):
            finite = all(math.isfinite(v) for v in got[2:])
            same = got[:2] == want[:2] and all(
                math.isclose(a, b, rel_tol=LOSS_RTOL, abs_tol=1e-12)
                for a, b in zip(got[2:], want[2:])
            )
            failed += not (finite and same)
    return attempted, failed, ref is not None


def machine(blas_threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }
