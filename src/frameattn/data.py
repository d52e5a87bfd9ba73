"""CSV ingestion, normalization, sliding-window segmentation, and a
synthetic multi-session sensor-stream generator.

Sessions are independent recordings; chronology is only meaningful inside
one.  The synthetic generator exists so that the batching ablations are
checkable at desk scale: with ``context=True`` it plants class pairs whose
frames are indistinguishable in isolation and only resolvable from the
surrounding activity, so any single-frame classifier is capped at guessing
on those pairs while a batch-context model is not.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, ParseError
from .seeding import TAG_SYNTH, mix64

log = logging.getLogger(__name__)

MAX_CLASSES = 10_000  # bound on the class count (largest label + 1), far above HAR label sets


@dataclass
class Recording:
    """One continuous session: (L, D) channel samples with per-sample labels."""

    session_id: str
    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2:
            raise DataError(f"samples must be (L, D), got shape {self.samples.shape}")
        if len(self.labels) != len(self.samples):
            raise DataError(
                f"session '{self.session_id}': {len(self.labels)} labels for "
                f"{len(self.samples)} samples"
            )


@dataclass(frozen=True)
class WindowSpec:
    """How sessions become frames, and how many sessions validate and test:
    the [data] section.  ``window`` samples per frame, one every ``step``;
    a frame's label is its samples' ``majority`` label or its ``last``."""

    window: int = 24
    step: int = 12
    label_rule: str = "majority"
    val_sessions: int = 1
    test_sessions: int = 1

    def __post_init__(self):
        if not 1 <= self.step <= self.window:
            raise ConfigError(
                f"step must satisfy 1 <= step <= window, got step={self.step}, window={self.window}"
            )
        if self.label_rule not in ("majority", "last"):
            raise ConfigError(f"label_rule must be 'majority' or 'last', got '{self.label_rule}'")
        if self.val_sessions < 1 or self.test_sessions < 1:
            raise ConfigError("val_sessions and test_sessions must each be >= 1")


@dataclass
class Frame:
    """One sliding-window segment; the unit the model classifies.
    ``chrono_index`` is its window number in its session."""

    data: np.ndarray
    label: int
    chrono_index: int
    session_id: str


@dataclass
class NormStats:
    """Per-channel mean/scale fitted on training data.

    Channels with (population) std below 1e-8 are passed through unchanged:
    their mean is stored as 0 and scale as 1.
    """

    mean: np.ndarray
    std: np.ndarray


def load_recordings(path: str | Path) -> list[Recording]:
    """Read one Recording per ``*.csv`` session file, lexicographic order.

    Format (UTF-8): a header ``t, ch1..chD, label``, then rows of exactly as many
    comma-separated numbers, which may be quoted (``"1.5"``) and padded
    with spaces.  Blank lines are skipped but still count in an error's
    ``file:line``.  ``t`` must be finite; rows are sorted by it, stably.  A
    label is a non-negative integral value below 2**63 (``2.0`` passes,
    ``2.7``, ``nan`` and ``inf`` do not).  Rows with a non-finite channel
    value are dropped (count logged).  Numbers are read by ``np.loadtxt``,
    so Python-only float spellings such as ``1_0.5`` are a ParseError.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"data directory not found: {root}")
    files = sorted(root.glob("*.csv"))
    if not files:
        raise DataError(f"no .csv session files in {root}")
    recordings = []
    for f in files:
        try:
            recordings.append(_load_session(f))
        except UnicodeDecodeError as e:
            raise DataError(f"{f}: not UTF-8 text ({e.reason})") from None
        except OSError as e:
            raise DataError(f"{f}: cannot read session file ({e.strerror or e})") from None
    width = recordings[0].samples.shape[1]
    for f, rec in zip(files, recordings):
        if rec.samples.shape[1] != width:
            raise DataError(f"{f}: {rec.samples.shape[1]} channels, but {files[0].name} has {width}")
    return recordings


def _load_session(path: Path) -> Recording:
    """One ``np.loadtxt`` call per session; the row checks are array ops."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"empty session file: {path}") from None
        if len(header) < 3 or header[0] != "t" or header[-1] != "label":
            raise ParseError(f"{path}: header must be 't, ch1..chD, label', got {header}")
        try:
            with warnings.catch_warnings():  # no rows: the DataError below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as e:
            _raise_first_bad_row(path, len(header), str(e))
    t, channels, labels = body[:, 0], body[:, 1:-1], body[:, -1]
    kept = np.isfinite(channels).all(axis=1)
    valid = np.isfinite(t) & (np.floor(labels) == labels) & (np.abs(labels) < 2.0**63)
    if (len(body) and body.shape[1] != len(header)) or not (valid & ~(kept & (labels < 0))).all():
        _raise_first_bad_row(path, len(header), f"rows do not match the header {header}")
    rows = np.flatnonzero(kept)
    dropped = len(body) - len(rows)
    if dropped:
        log.warning("%s: dropped %d rows with non-finite channel values", path.name, dropped)
    if not len(rows):
        raise DataError(f"no usable data rows in {path}")
    rows = rows[np.argsort(t[rows], kind="stable")]
    return Recording(path.stem, channels[rows], labels[rows].astype(np.int64))


def _raise_first_bad_row(path: Path, width: int, reason: str) -> NoReturn:
    """Error reporting for a session the bulk parse rejected: the same rules
    row by row, raising at the first bad ``file:line``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            at = f"{path}:{lineno}"
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"{at}: expected {width} fields, got {len(row)}")
            try:
                t, *channels, label = [_number(v) for v in row]
            except ValueError as e:
                raise ParseError(f"{at}: {e}") from None
            if not math.isfinite(t):
                raise ParseError(f"{at}: timestamp {t} is not finite")
            if not (label.is_integer() and abs(label) < 2.0**63):
                raise ParseError(f"{at}: label must be an integer below 2**63, got {row[-1]!r}")
            if label < 0 and all(map(math.isfinite, channels)):
                raise DataError(f"{at}: negative label {int(label)}")
    raise ParseError(f"{path}: {reason}")


def _number(field: str) -> float:
    """``float``, narrowed to the spellings ``np.loadtxt`` accepts."""
    if field.strip().isascii() and "_" not in field:
        return float(field)
    raise ValueError(f"could not convert string to float: {field!r}")


def fit_normalizer(recordings: list[Recording]) -> NormStats:
    """Per-channel mean and population std over the concatenated samples."""
    stacked = np.concatenate([r.samples for r in recordings], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    constant = std < 1e-8
    mean[constant] = 0.0
    std[constant] = 1.0
    return NormStats(mean=mean, std=std)


def apply_normalizer(recording: Recording, stats: NormStats) -> Recording:
    return Recording(
        session_id=recording.session_id,
        samples=(recording.samples - stats.mean) / stats.std,
        labels=recording.labels.copy(),
    )


def _window_labels(windows: np.ndarray, rule: str) -> np.ndarray:
    """Per row of ``windows`` (n, T): the last label, or under ``majority``
    the most frequent one (the last again when two or more tie)."""
    last = windows[:, -1]
    if rule == "last":
        return last
    classes = np.unique(windows)
    counts = np.stack([(windows == c).sum(axis=1) for c in classes], axis=1)
    tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
    return np.where(tied, last, classes[counts.argmax(axis=1)])


def sliding_window(recording: Recording, spec: WindowSpec) -> list[Frame]:
    """Segment one session into frames starting at 0, S, 2S, ..., listed
    by window start and numbered 0..n-1 (``chrono_index``).

    Yields floor((L - T) / S) + 1 frames; a session shorter than one window
    yields none (warning logged).  Every ``Frame.data`` is a read-only view
    into one (n, T, D) copy made for the whole session."""
    length = len(recording.samples)
    window, step = spec.window, spec.step
    if length < window:
        log.warning(
            "session '%s' has %d samples, shorter than window %d; no frames",
            recording.session_id,
            length,
            window,
        )
        return []
    views = sliding_window_view(recording.samples, window, axis=0)[::step]  # (n, D, T)
    data = np.ascontiguousarray(views.transpose(0, 2, 1))
    data.flags.writeable = False
    labels = _window_labels(sliding_window_view(recording.labels, window)[::step], spec.label_rule)
    return [
        Frame(data=d, label=label, chrono_index=k, session_id=recording.session_id)
        for k, (d, label) in enumerate(zip(data, labels.tolist()))
    ]


def split_by_session(
    recordings: list[Recording], spec: WindowSpec
) -> tuple[list[Recording], list[Recording], list[Recording]]:
    """Deterministic split: after sorting by session id, the last
    ``spec.test_sessions`` are test, the ``spec.val_sessions`` before them
    validation."""
    ordered = sorted(recordings, key=lambda r: r.session_id)
    held_out = spec.val_sessions + spec.test_sessions
    if len(ordered) < held_out + 1:
        raise DataError(f"need more than {held_out} sessions, got {len(ordered)}")
    val_start = len(ordered) - held_out
    test_start = val_start + spec.val_sessions
    return ordered[:val_start], ordered[val_start:test_start], ordered[test_start:]


@dataclass
class DataSplits:
    train: list[Frame]
    val: list[Frame]
    test: list[Frame]
    stats: NormStats
    classes: int


def prepare_splits(
    recordings: list[Recording], spec: WindowSpec, stats: NormStats | None = None
) -> DataSplits:
    """Split by session (``split_by_session``: the spec's validation and
    test session counts), normalize with training statistics, and window:
    a split lists its sessions in id order, each one's frames by start.

    Passing ``stats`` (e.g. loaded from a previous run) skips the fit, so an
    evaluation reproduces the exact training-time preprocessing."""
    train_recs, val_recs, test_recs = split_by_session(recordings, spec)
    if stats is None:
        stats = fit_normalizer(train_recs)
    elif stats.mean.shape != train_recs[0].samples.shape[1:]:
        raise DataError(
            f"normalizer stats cover {stats.mean.size} channels, "
            f"the data has {train_recs[0].samples.shape[1]}"
        )
    frames = {}
    for name, recs in (("train", train_recs), ("val", val_recs), ("test", test_recs)):
        frames[name] = [f for r in recs for f in sliding_window(apply_normalizer(r, stats), spec)]
        if not frames[name]:
            raise DataError(
                f"the {name} split has no frames: its sessions are shorter than "
                f"the {spec.window}-sample window"
            )
    top = max(recordings, key=lambda r: r.labels.max())
    label = int(top.labels.max())
    if label >= MAX_CLASSES:
        raise DataError(f"session '{top.session_id}': label {label} >= class bound {MAX_CLASSES}")
    return DataSplits(**frames, stats=stats, classes=label + 1)


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic stream generator settings.

    Classes are organized into signature groups.  With ``context=True`` the
    first ``2 * n_pairs`` classes form ambiguous pairs that share one
    signature per pair; the remaining classes ("context" classes) have
    distinct signatures and the hidden chain alternates context -> pair ->
    context.  Which pair element occurs is determined by the parity of the
    preceding context class, so the label of a pair frame is recoverable
    only from neighbouring frames.  With ``context=False`` every class has
    its own signature and frames are classifiable in isolation.
    """

    classes: int = 4
    channels: int = 3
    sessions: int = 6
    session_len: int = 6656
    window: int = 16
    mean_dwell_windows: float = 4.0
    context: bool = True
    noise: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"synthetic classes must be >= 2, got {self.classes}")
        if self.context and self.classes < 4:
            raise ConfigError(
                f"context mode needs >= 4 classes (one pair + two context classes), got {self.classes}"
            )
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        if self.sessions < 1:
            raise ConfigError(f"sessions must be >= 1, got {self.sessions}")
        if self.mean_dwell_windows < 3:
            raise ConfigError(
                f"mean dwell must be >= 3 windows, got {self.mean_dwell_windows}"
            )
        if self.window < 2:
            raise ConfigError(f"window must be >= 2, got {self.window}")
        if self.session_len < 4 * self.window:
            raise ConfigError(
                f"session_len ({self.session_len}) too short for window {self.window}"
            )
        # a dwell longer than the session leaves no chain, and the bound keeps
        # the dwell draw finite
        if self.mean_dwell_windows * self.window > self.session_len:
            raise ConfigError(
                f"mean dwell of {self.mean_dwell_windows} windows of {self.window} samples "
                f"exceeds session_len {self.session_len}"
            )
        if self.noise < 0:
            raise ConfigError(f"noise must be >= 0, got {self.noise}")

    @property
    def n_pairs(self) -> int:
        return (self.classes - 2) // 2 if self.context else 0

    @property
    def n_context(self) -> int:
        return self.classes - 2 * self.n_pairs


def signature_groups(cfg: SynthConfig) -> list[int]:
    """Map class id -> signature group id; pair elements share a group."""
    return [c // 2 if c < 2 * cfg.n_pairs else c - cfg.n_pairs for c in range(cfg.classes)]


def _signature_params(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (group, channel): amplitude, frequency (cycles/sample), DC offset.

    Frequencies and offsets are evenly spaced so groups are separable by
    construction; amplitudes vary randomly for texture.
    """
    groups = max(signature_groups(cfg)) + 1
    rng = np.random.default_rng(mix64(cfg.seed, TAG_SYNTH))
    amp = rng.uniform(0.6, 1.4, size=(groups, cfg.channels))
    idx = np.arange(groups * cfg.channels).reshape(groups, cfg.channels)
    freq = 0.04 + idx * (0.20 / (groups * cfg.channels))
    offset = np.repeat(np.linspace(-1.0, 1.0, groups)[:, None], cfg.channels, axis=1)
    return amp, freq, offset


def _chain(cfg: SynthConfig, rng: np.random.Generator, start: int):
    """Hidden activity sequence, one class per ``next``.

    Context mode alternates context class -> pair element -> next context
    class (rotating), with the pair element's parity fixed by the preceding
    context class.  Plain mode walks uniformly among all classes, never
    repeating the current one.
    """
    if not cfg.context:
        current = start % cfg.classes
        while True:
            current = (current + int(rng.integers(1, cfg.classes))) % cfg.classes
            yield current
    n_pairs, n_context = cfg.n_pairs, cfg.n_context
    ctx = start % n_context
    while True:
        yield 2 * n_pairs + ctx
        yield 2 * int(rng.integers(n_pairs)) + ctx % 2
        ctx = (ctx + 1) % n_context


def generate_synthetic(cfg: SynthConfig) -> list[Recording]:
    """Deterministic multi-session streams; see SynthConfig for the task."""
    amp, freq, offset = _signature_params(cfg)
    groups = signature_groups(cfg)
    mean_dwell = cfg.mean_dwell_windows * cfg.window
    recordings = []
    for s in range(cfg.sessions):
        rng = np.random.default_rng(mix64(cfg.seed, TAG_SYNTH, s + 1))
        chain = _chain(cfg, rng, start=s)
        samples = np.empty((cfg.session_len, cfg.channels))
        labels = np.empty(cfg.session_len, dtype=np.int64)
        pos = 0
        while pos < cfg.session_len:
            cls = next(chain)
            dwell = int(max(2 * cfg.window, round(rng.normal(mean_dwell, 0.25 * mean_dwell))))
            end = min(pos + dwell, cfg.session_len)
            g = groups[cls]
            t = np.arange(end - pos)[:, None]
            phase = rng.uniform(0.0, 2.0 * np.pi, size=cfg.channels)
            wave = amp[g] * np.sin(2.0 * np.pi * freq[g] * t + phase) + offset[g]
            samples[pos:end] = wave + rng.normal(0.0, cfg.noise, size=(end - pos, cfg.channels))
            labels[pos:end] = cls
            pos = end
        recordings.append(Recording(session_id=f"session_{s:02d}", samples=samples, labels=labels))
    return recordings


def write_sessions(recordings: list[Recording], out_dir: str | Path, manifest: dict) -> list[Path]:
    """Write one CSV per session plus manifest.json; returns written paths.
    A CSV already in ``out_dir`` that this call would not write is a
    ConfigError, raised before anything is written: ``load_recordings``
    reads every CSV there, so it would join this set."""
    out = Path(out_dir)
    names = [f"{rec.session_id}.csv" for rec in recordings]
    stale = sorted({p.name for p in out.glob("*.csv")}.difference(names))
    if stale:
        raise ConfigError(f"{out} holds sessions this set does not have: {', '.join(stale)}; "
                          "remove them or write to another directory")
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for rec, name in zip(recordings, names):
        path = out / name
        n_ch = rec.samples.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"ch{i + 1}" for i in range(n_ch)] + ["label"])
            # row by row: a whole session as Python floats would raise peak memory
            rows = zip(rec.samples, rec.labels.tolist())
            writer.writerows([t, *row.tolist(), label] for t, (row, label) in enumerate(rows))
        paths.append(path)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    paths.append(manifest_path)
    return paths
