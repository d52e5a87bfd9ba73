"""The traced run: spans from the benchmark's own wrappers around the public
functions of each layer, plus the per-stage backward replay.

Spans are kept in memory and turned into the per-layer metrics when the run
ends. Three main-loop steps early in the run are probes and are left out of
every timing: step CAPTURE_STEP copies each stage's inputs for the replay,
and the ALLOC_STEPS run under ``tracemalloc``.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from frameattn import batching, data, losses, model, tensor, training
from frameattn.losses import LossConfig, MetricsAccumulator
from frameattn.model import AttentionModel
from frameattn.tensor import Tensor

from harness import WINDOW, Abort, Clock, Workload, model_config

CAPTURE_STEP = 1
ALLOC_STEPS = (2, 3)
REPLAY_REPS = 5
PROBE_STEPS = 5
COTANGENT_SEED = 20240529

# stage -> the module-level model functions that make it up, in call order
STAGES = {
    "backbone": ("backbone_features",),
    "intra": ("intra_attention",),
    "inter": ("inter_attention",),
    "blend": ("combine_attention",),
    "fusion": ("fuse_features",),
    "mh": ("multi_head_attention",),
    "gate": ("gate_values", "apply_gate"),
    "moe": ("moe_layer",),
}
STAGE_OF = {fn: stage for stage, fns in STAGES.items() for fn in fns}

LAYER_METRICS = {  # name -> unit
    "tensor.backward_ms": "ms",
    "tensor.tensors_per_step": "count",
    "tensor.gc_pause_ms": "ms",
    "tensor.gc_collections": "count",
    "tensor.step_alloc_peak_mb": "MB",
    **{f"model.{s}.fwd_ms": "ms" for s in STAGES},
    **{f"model.{s}.bwd_ms": "ms" for s in STAGES},
    "model.forward_ms": "ms",
    "model.forward_nograd_ms": "ms",
    "model.forward.self_ms": "ms",
    "losses.combined_loss.fwd_ms": "ms",
    "losses.combined_loss.bwd_ms": "ms",
    "losses.metrics_update_ms": "ms",
    "training.zero_grad_ms": "ms",
    "training.adamw_step_ms": "ms",
    "training.evaluate_s": "s",
    "training.checkpoint_save_ms": "ms",
    "training.checkpoint_load_ms": "ms",
    "training.step.self_ms": "ms",
    "batching.build_plan_ms": "ms",
    "data.load_recordings_s": "s",
    "data.csv_rows_per_s": "rows/s",
    "data.prepare_splits_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    ctx: str  # "loop" outside evaluate, "eval" inside it, "probe" after the workload
    step: int | None  # main-loop step open when the span began

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


def _snapshot(value):
    if isinstance(value, Tensor):
        return ("tensor", value.data.copy(), id(value))
    if isinstance(value, dict) and value and all(isinstance(v, Tensor) for v in value.values()):
        return ("params", {k: v.data.copy() for k, v in value.items()}, None)
    return ("value", value, None)


def _leaf(snap, produced: dict):
    kind, payload, ident = snap
    if kind == "tensor":
        return produced.get(ident) or Tensor(payload.copy(), requires_grad=True)
    if kind == "params":
        return {k: Tensor(v.copy(), requires_grad=True) for k, v in payload.items()}
    return payload


def _main_output(out) -> Tensor:
    return out[0] if isinstance(out, tuple) else out


class Tracer(Clock):
    """Boundary clock plus one span per call of each wrapped public function."""

    def __init__(self, w: Workload):
        super().__init__(w)
        self.main_ctx = "loop" if w.train else "eval"
        self.ctx = "loop"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.step: int | None = None
        self.n_steps = 0
        self.step_times: dict[int, tuple[float, float]] = {}
        self.tensor_count = 0
        self._step_tensors = 0
        self.tensors_per_step: list[int] = []
        self.alloc_peaks_mb: list[float] = []
        self.capturing = False
        self.captures: dict[str, tuple] = {}
        self.csv_rows: dict[int, int] = {}  # data.load_recordings span id -> rows read
        self.gc_events: list[tuple[float, float]] = []
        self._gc_start = 0.0

    # installation

    def install(self) -> None:
        self.patch(AttentionModel, "forward", self._wrap_forward)
        self.patch(training, "evaluate", self._wrap_evaluate)
        self.patch(Tensor, "__init__", self._wrap_tensor_init)
        self.patch(tensor, "backward", self._spanned("tensor.backward"))
        for fn, stage in STAGE_OF.items():
            self.patch(model, fn, self._spanned(f"model.{stage}", capture=fn))
        self.patch(training, "combined_loss", self._spanned("losses.combined_loss", capture="loss"))
        self.patch(MetricsAccumulator, "update", self._spanned("losses.metrics_update"))
        self.patch(training.AdamW, "zero_grad", self._spanned("training.zero_grad"))
        self.patch(training.AdamW, "step", self._spanned("training.adamw_step"))
        self.patch(training, "checkpoint_save", self._spanned("training.checkpoint_save"))
        self.patch(training, "checkpoint_load", self._spanned("training.checkpoint_load"))
        self.patch(training, "build_plan", self._spanned("batching.build_plan"))
        self.patch(data, "load_recordings", self._spanned("data.load_recordings"))
        self.patch(data, "prepare_splits", self._spanned("data.prepare_splits"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        super().uninstall()

    # wrappers

    def _spanned(self, name: str, capture: str | None = None):
        def wrapper_for(orig):
            def wrapper(*args, **kw):
                sid = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else None
                ctx, step = self.ctx, self.step
                self._stack.append(sid)
                start = time.perf_counter()
                try:
                    out = orig(*args, **kw)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, ctx, step))
                if name == "data.load_recordings":
                    self.csv_rows[sid] = sum(len(r.samples) for r in out)
                if capture and self.capturing and capture not in self.captures:
                    self.captures[capture] = (
                        [_snapshot(a) for a in args],
                        _main_output(out).data.copy(),
                        id(_main_output(out)),
                    )
                return out

            return wrapper

        return wrapper_for

    def _wrap_forward(self, orig):
        spanned = {
            True: self._spanned("model.forward")(orig),
            False: self._spanned("model.forward_nograd")(orig),
        }

        def forward(m, frames, **kw):
            mode = kw.get("training", False)
            now = time.perf_counter()
            self.forwards.append((now, mode))
            if self.abort:
                raise Abort
            if self.ctx != "probe" and mode == self.main_training:
                self._close_step(now)
                self._open_step(now)
            trace = spanned[mode](m, frames, **kw)
            if self.capturing and "head" not in self.captures:
                self.captures["head"] = (
                    trace.o_moe.data.copy(),
                    m.params["cls.w"].data.copy(),
                    m.params["cls.b"].data.copy(),
                    trace.logits.data.copy(),
                )
            return trace

        return forward

    def _wrap_evaluate(self, orig):
        spanned = self._spanned("training.evaluate")(orig)

        def evaluate(m, frames, *args, **kw):
            start = time.perf_counter()
            if self.main_training:
                self._close_step(start)
            outer, self.ctx = self.ctx, "eval"
            try:
                result = spanned(m, frames, *args, **kw)
            finally:
                self.ctx = outer
            end = time.perf_counter()
            if not self.main_training:
                self._close_step(end)
            self.evals.append((start, end, len(frames)))
            return result

        return evaluate

    def _wrap_tensor_init(self, orig):
        def init(t, *args, **kw):
            self.tensor_count += 1
            orig(t, *args, **kw)

        return init

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append((self._gc_start, time.perf_counter() - self._gc_start))

    # main-loop steps

    def _open_step(self, now: float) -> None:
        self.step = self.n_steps
        self.n_steps += 1
        self.step_times[self.step] = (now, now)
        self._step_tensors = self.tensor_count
        self.capturing = self.step == CAPTURE_STEP
        if self.step in ALLOC_STEPS:
            tracemalloc.start()

    def _close_step(self, now: float) -> None:
        if self.step is None:
            return
        if tracemalloc.is_tracing():
            self.alloc_peaks_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
        self.step_times[self.step] = (self.step_times[self.step][0], now)
        self.tensors_per_step.append(self.tensor_count - self._step_tensors)
        self.capturing = False
        self.step = None

    # probes and replays

    def probe_training_layers(self, w: Workload, seed: int, inputs: Path, out: Path) -> None:
        """``eval_long`` never trains. A few training steps at its shapes after
        the workload let the training-only layers report; their spans are
        tagged "probe" and used only for names the workload itself lacks."""
        self.ctx = "probe"
        recs = data.load_recordings(inputs / "data")
        splits = data.prepare_splits(recs, WINDOW)
        m = AttentionModel(model_config(w, splits.classes), seed=seed)
        m.load_state(training.checkpoint_load(inputs / "checkpoint.bin"))
        opt = training.AdamW(m.params, m.decay_keys)
        rng = np.random.default_rng(seed)
        plan = training.build_plan(batching.TIME_SEQUENTIAL, splits.train, w.batch_size, seed, 0)
        for batch in plan.batches[:PROBE_STEPS]:
            x = np.stack([splits.train[i].data for i in batch])
            y = np.array([splits.train[i].label for i in batch])
            trace = m.forward(x, training=True, rng=rng)
            loss = training.combined_loss(trace.logits, y, LossConfig())
            opt.zero_grad()
            tensor.backward(loss)
            opt.step()
        out.mkdir(parents=True, exist_ok=True)
        training.checkpoint_save(m.state_arrays(), out / "probe.bin")

    def replay(self) -> tuple[dict[str, list[float]], int, int]:
        """Backward time of each stage alone, on leaf copies of the inputs
        captured in step CAPTURE_STEP. Call after ``uninstall``.

        Each replayed forward must reproduce the in-graph output bit for bit;
        returns (stage -> backward ms, checks attempted, checks failed).
        """
        rng = np.random.default_rng(COTANGENT_SEED)
        times: dict[str, list[float]] = {}
        attempted = failed = 0
        for stage, fns in STAGES.items():
            if not all(fn in self.captures for fn in fns):
                continue
            cot = None
            for _ in range(REPLAY_REPS):
                produced: dict[int, Tensor] = {}
                for fn in fns:
                    snaps, expect, ident = self.captures[fn]
                    out = _main_output(getattr(model, fn)(*[_leaf(s, produced) for s in snaps]))
                    attempted += 1
                    failed += not np.array_equal(out.data, expect)
                    produced[ident] = out
                if cot is None:
                    cot = Tensor(rng.standard_normal(out.shape))
                times.setdefault(stage, []).append(self._time_backward(tensor.tsum(out * cot)))
        if "head" in self.captures and "loss" in self.captures:
            o_moe, w, b, logits_ref = self.captures["head"]
            snaps, loss_ref, _ = self.captures["loss"]
            for _ in range(REPLAY_REPS):
                leaves = [Tensor(a.copy(), requires_grad=True) for a in (o_moe, w, b)]
                logits = leaves[0] @ leaves[1] + leaves[2]
                loss = losses.combined_loss(logits, *[s[1] for s in snaps[1:]])
                attempted += 2
                failed += not np.array_equal(logits.data, logits_ref)
                failed += not np.array_equal(loss.data, loss_ref)
                times.setdefault("head_loss", []).append(self._time_backward(loss))
        return times, attempted, failed

    @staticmethod
    def _time_backward(loss: Tensor) -> float:
        start = time.perf_counter()
        tensor.backward(loss)
        return 1e3 * (time.perf_counter() - start)

    # metrics

    def layer_metrics(self, units, replays: dict[str, list[float]]) -> tuple[dict, dict]:
        """Per-layer metric medians and their sample counts. Like the
        throughput metrics, they describe the later, warm units: spans in the
        first unit ``units[0]`` are left out."""
        skip = {CAPTURE_STEP, *ALLOC_STEPS}
        first = units[0]
        units = units[1:]
        timed = [
            s for s in self.spans
            if s.step not in skip and not first.start <= s.start <= first.end
        ]

        def pick(name: str) -> list[Span]:
            spans = [s for s in timed if s.name == name]
            return (
                [s for s in spans if s.ctx == self.main_ctx]
                or [s for s in spans if s.ctx != "probe"]
                or spans
            )

        samples: dict[str, list[float]] = {}
        for key, name in (
            ("tensor.backward_ms", "tensor.backward"),
            ("model.forward_ms", "model.forward"),
            ("model.forward_nograd_ms", "model.forward_nograd"),
            ("losses.combined_loss.fwd_ms", "losses.combined_loss"),
            ("losses.metrics_update_ms", "losses.metrics_update"),
            ("training.zero_grad_ms", "training.zero_grad"),
            ("training.adamw_step_ms", "training.adamw_step"),
            ("training.checkpoint_save_ms", "training.checkpoint_save"),
            ("training.checkpoint_load_ms", "training.checkpoint_load"),
            ("batching.build_plan_ms", "batching.build_plan"),
        ):
            samples[key] = [s.ms for s in pick(name)]
        for key, name in (
            ("training.evaluate_s", "training.evaluate"),
            ("data.load_recordings_s", "data.load_recordings"),
            ("data.prepare_splits_s", "data.prepare_splits"),
        ):
            samples[key] = [s.end - s.start for s in pick(name)]
        samples["data.csv_rows_per_s"] = [
            self.csv_rows[s.id] / (s.end - s.start) for s in pick("data.load_recordings")
        ]

        # Stage times per main-loop forward (gate is two calls), and what the
        # forward spends outside every stage: head, positional code, dropout.
        main_fwd = "model.forward" if self.main_training else "model.forward_nograd"
        forwards = {s.id: s for s in pick(main_fwd)}
        per_fwd = {fid: {} for fid in forwards}
        for s in timed:
            if s.parent in per_fwd and s.name.startswith("model."):
                stage = s.name.split(".", 1)[1]
                per_fwd[s.parent][stage] = per_fwd[s.parent].get(stage, 0.0) + s.ms
        for stage in STAGES:
            samples[f"model.{stage}.fwd_ms"] = [d[stage] for d in per_fwd.values() if stage in d]
            samples[f"model.{stage}.bwd_ms"] = replays.get(stage, [])
        samples["model.forward.self_ms"] = [
            forwards[fid].ms - sum(d.values()) for fid, d in per_fwd.items()
        ]
        samples["losses.combined_loss.bwd_ms"] = replays.get("head_loss", [])

        # Step time minus the outermost spans inside the step: batch gather,
        # .item(), argmax and loop overhead remain.
        by_step: dict[int, float] = {}
        ids_in_step = {s.id: s.step for s in timed}
        for s in timed:
            if s.step is not None and ids_in_step.get(s.parent) != s.step:
                by_step[s.step] = by_step.get(s.step, 0.0) + s.ms
        samples["training.step.self_ms"] = [
            1e3 * (end - start) - by_step.get(k, 0.0)
            for k, (start, end) in self.step_times.items()
            if k not in skip and start > first.end
        ]

        samples["tensor.tensors_per_step"] = list(self.tensors_per_step)
        samples["tensor.step_alloc_peak_mb"] = list(self.alloc_peaks_mb)
        samples["tensor.gc_pause_ms"] = [
            1e3 * sum(d for t, d in self.gc_events if u.start <= t <= u.end) for u in units
        ]
        samples["tensor.gc_collections"] = [
            sum(1 for t, _ in self.gc_events if u.start <= t <= u.end) for u in units
        ]
        values = {k: statistics.median(v) for k, v in samples.items() if v}
        counts = {k: len(v) for k, v in samples.items()}
        return values, counts

