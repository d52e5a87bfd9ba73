"""Operator commands: datagen | train | eval | gradcheck | ablate.

Configuration has one path, the same for every command: defaults, then an
INI config file (``--config``; ``key = value`` under
[model]/[data]/[synthetic]/[train]/[loss] sections), then
``--set section.key=value``; no other flag names a config key.  The seeds are
keys too: ``train.seed`` and ``synthetic.seed``.  The defaults are the field
defaults of ``WindowSpec`` ([data]), ``ModelConfig``, ``SynthConfig``,
``TrainConfig`` and ``LossConfig``; only ``model.disable`` is listed here.
A ``RunConfig`` builds, and so checks, [data], [train] with its [loss], and
[model] when it is made, so every command checks them before it reads any
data or writes any file; ``datagen`` also builds [synthetic], which no
other command reads.  Every failure, a malformed command line included, is a
``FrameAttnError`` and exits with its class's ``exit_code`` (see
``errors.py``); running out of memory prints ``error: out of memory: ...``
and exits 1.

A run directory holds ``run_config.ini`` (the resolved configuration, in the
``--config`` format), ``normalizer.json`` (train-split channel stats),
``metrics.jsonl``, ``checkpoint.bin`` and, with ``--dump-plan``,
``plans.jsonl``; ``eval`` reads the checkpoint's directory (its
``run_config.ini`` unless ``--config`` is given) and the data.  ``train``
writes one run directory and ``ablate`` one per grid point and seed.  An
ablation cell overrides only [model] and [loss] (``COMPONENT_CELLS``); the
grid point sets the strategy, batch size and seed.  A grid flag that is
absent takes the one resolved [train] value, so ``ablate --config
<run>/run_config.ini`` repeats that run's grid point.  ``train`` takes the
model's channel and class counts from the data; ``eval`` takes them from the
run: the normalizer's width and the checkpoint's classes (the width of its
``cls.b`` record).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import statistics
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DataSplits,
    NormStats,
    SynthConfig,
    WindowSpec,
    generate_synthetic,
    load_recordings,
    prepare_splits,
    write_sessions,
)
from .errors import CheckpointError, ConfigError, DataError, FrameAttnError, NumericError
from .losses import LossConfig
from .model import AttentionModel, ModelConfig, parameter_gradcheck_report
from .training import TrainConfig, TrainResult, checkpoint_load, evaluate, train

GRADCHECK_TOLERANCE = 1e-6


def _field_defaults(cls, derived: tuple[str, ...] = ()) -> dict[str, str]:
    # Fields without a plain default come from the data or another section
    return {
        f.name: str(f.default)
        for f in fields(cls)
        if f.default is not MISSING and f.name not in derived
    }


DEFAULTS = {
    "model": {**_field_defaults(ModelConfig), "disable": ""},
    "data": _field_defaults(WindowSpec),
    # the synthetic window is the [data] window
    "synthetic": _field_defaults(SynthConfig, derived=("window",)),
    "train": _field_defaults(TrainConfig),
    "loss": _field_defaults(LossConfig),
}

# Component ablation cells, as [model] and [loss] overrides, mirroring the
# five-row component study (baseline / intra / inter / both / full) plus a
# reference without the across-frame stages.  baseline to both train with
# plain cross-entropy.  The ablation grid sets each point's [train] strategy
# and batch size.  Without inter no stage reads another frame of the batch.
_CROSS_ENTROPY = {"loss": {"lam": "0"}}
COMPONENT_CELLS = {
    "baseline": {"model": {"disable": "intra,inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "intra": {"model": {"disable": "inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "inter": {"model": {"disable": "intra,moe,gate"}, **_CROSS_ENTROPY},
    "both": {"model": {"disable": "moe,gate"}, **_CROSS_ENTROPY},
    "full": {"model": {"disable": ""}},
    # No inter-frame attention, positional code or gate.
    "isolated": {"model": {"disable": "inter,pe,gate"}},
}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_finite(value: str) -> float:
    # float() also takes nan and inf; no config value means either, and
    # every range check lets nan through
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(value)
    return v


# Parser and expectation per field annotation (a string: the config
# dataclasses' modules postpone annotation evaluation).
_PARSERS = {
    "int": (int, "an integer"),
    "float": (_parse_finite, "a finite number"),
    "bool": (_parse_bool, "a boolean"),
    "str": (str, "a string"),
}


def _read_config(path: Path) -> dict[str, dict[str, str]]:
    """The sections of an INI file, values taken literally."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive, as in --set
    try:
        parser.read(path)
    except (configparser.Error, OSError, ValueError) as e:
        raise ConfigError(f"cannot parse config file {path}: {e}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _merge(sections: dict[str, dict[str, str]], given: dict, source: str) -> None:
    """Overlay ``given`` ({section: {key: value}}) onto ``sections``; an
    unknown section or key is a ConfigError naming ``source``."""
    for section, values in given.items():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] in {source}")
        for key, value in values.items():
            if key not in sections[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {source}")
            sections[section][key] = str(value)


class RunConfig:
    """Resolved configuration: defaults <- config file <- ``--set`` overrides.

    Made from its sections, it builds, and so checks, [data] as ``data``,
    [train] with its [loss] as ``train`` and [model] at the [data] window as
    ``model``, in that order; a RunConfig that exists holds valid configs.
    ``model``'s ``channels`` and ``classes`` are placeholders: ``train``
    takes them from the data, ``eval`` from the run (the normalizer's width
    and the checkpoint's classes); ``gradcheck`` sets 3 and 4.  [synthetic]
    is built by ``datagen`` alone: its checks tie it to the window, and no
    other command reads it.
    """

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections
        self.data = self.build(WindowSpec, "data")
        self.train = self.build(TrainConfig, "train", loss=self.build(LossConfig, "loss"))
        self.model = self.build(
            ModelConfig,
            "model",
            window_len=self.data.window,
            channels=1,
            classes=2,
            disabled=frozenset(v.strip() for v in sections["model"]["disable"].split(",")
                               if v.strip()),
        )

    @classmethod
    def load(cls, config_path: str | Path | None, overrides: dict[str, dict[str, str]]):
        sections = {name: dict(values) for name, values in DEFAULTS.items()}
        if config_path:
            _merge(sections, _read_config(Path(config_path)), str(config_path))
        _merge(sections, overrides, "the command line")
        return cls(sections)

    def build(self, cls, section: str, **given):
        """``cls(**given)``, with every other field parsed by its annotation
        from the same-named key of ``[section]``."""
        for f in fields(cls):
            if f.name not in given:
                raw = self.sections[section][f.name]
                parse, expected = _PARSERS[f.type]
                try:
                    given[f.name] = parse(raw)
                except ValueError:
                    raise ConfigError(
                        f"[{section}] {f.name} must be {expected}, got '{raw}'"
                    ) from None
        return cls(**given)

    def write_resolved(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_dict(self.sections)
        with open(out_dir / "run_config.ini", "w") as fh:
            parser.write(fh)


def _overrides_from_args(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """The ``--set section.key=value`` overrides, by section."""
    ov: dict[str, dict[str, str]] = {}
    for item in args.set or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got '{item}'")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        ov.setdefault(section, {})[key.strip()] = value.strip()
    return ov


def _write_normalizer(stats: NormStats, out_dir: Path) -> None:
    obj = {"mean": stats.mean.tolist(), "std": stats.std.tolist()}
    (out_dir / "normalizer.json").write_text(json.dumps(obj, indent=2) + "\n")


def _read_normalizer(path: Path) -> NormStats:
    if not path.is_file():
        raise DataError(f"normalizer stats not found: {path}")
    try:
        obj = json.loads(path.read_text())
        mean = np.array(obj["mean"], dtype=np.float64)
        std = np.array(obj["std"], dtype=np.float64)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError(f"mean {mean.shape} and std {std.shape} are not equal-length lists")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise ValueError("mean and std must be finite and std positive")
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"malformed normalizer stats {path}: {e!r}") from None
    return NormStats(mean=mean, std=std)


def _out_dir(path: str | Path) -> Path:
    """An output directory as a Path, checked before any data is read: it
    is made later, which fails if it or a parent is not a directory."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists() and not p.is_dir():
            raise ConfigError(f"cannot write to {out}: {p} exists and is not a directory")
    return out


def cmd_datagen(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args))
    cfg = run.build(SynthConfig, "synthetic", window=run.data.window)
    out = _out_dir(args.out)
    recordings = generate_synthetic(cfg)
    sessions = [r.session_id for r in recordings]
    write_sessions(recordings, out, {"seed": cfg.seed, "config": asdict(cfg), "sessions": sessions})
    run.write_resolved(out)
    print(f"wrote {len(recordings)} sessions to {out}")
    return 0


def _train_run(run: RunConfig, splits: DataSplits, out: Path, dump_plans=False) -> TrainResult:
    """Train one run of ``run`` into the run directory ``out``.  The model
    config is fitted to the data, and so checked, before any file is
    written."""
    if splits.classes < 2:
        raise DataError(
            f"the labels span [0, {splits.classes - 1}]: training needs 2 or more classes"
        )
    model_cfg = replace(run.model, channels=splits.stats.mean.size, classes=splits.classes)
    # built and dropped, so a model too large to build leaves no run files
    AttentionModel(model_cfg, seed=run.train.seed)
    run.write_resolved(out)
    _write_normalizer(splits.stats, out)
    return train(
        model_cfg, splits.train, splits.val, splits.test, run.train, out, dump_plans=dump_plans
    )


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args))
    out = _out_dir(args.out)
    splits = prepare_splits(load_recordings(args.data), run.data)
    history = _train_run(run, splits, out, args.dump_plan).history
    test = history[-1]
    val = next(r for r in history if r["split"] == "val" and r["epoch"] == test["epoch"])
    print(
        f"best epoch {test['epoch']} (val mean F1 {val['mean_f1']:.4f}); "
        f"test mean F1 {test['mean_f1']:.4f}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt_path = Path(args.checkpoint)
    run_dir = ckpt_path.parent
    run = RunConfig.load(args.config or run_dir / "run_config.ini", _overrides_from_args(args))
    out = _out_dir(args.out) if args.out else None
    stats = _read_normalizer(run_dir / "normalizer.json")
    splits = prepare_splits(load_recordings(args.data), run.data, stats=stats)

    arrays = checkpoint_load(ckpt_path)
    bias = arrays.get("cls.b", np.empty(0))
    if bias.ndim != 2 or bias.shape[1] < 2:
        raise CheckpointError(f"{ckpt_path}: no (1, C) 'cls.b' record with C >= 2 classes")
    classes = bias.shape[1]
    if splits.classes > classes:
        raise DataError(f"label {splits.classes - 1} in {args.data} is not one of the "
                        f"checkpoint's {classes} classes")
    # every parameter comes from the checkpoint, so the init seed is immaterial
    model = AttentionModel(replace(run.model, channels=stats.mean.size, classes=classes))
    model.load_state(arrays)

    frames = {"train": splits.train, "val": splits.val, "test": splits.test}[args.split]
    loss, acc = evaluate(model, frames, run.train.batch_size, run.train.loss, classes)
    f1 = acc.per_class_f1
    print(f"split {args.split}: mean F1 {acc.mean_f1:.6f}, loss {loss:.6f}")
    print("class  tp  fp  fn  f1")
    for c in range(acc.classes):
        print(f"{c:5d} {acc.tp[c]:3d} {acc.fp[c]:3d} {acc.fn[c]:3d} {f1[c]:.4f}")
    if out:
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "split": args.split,
            "mean_f1": acc.mean_f1,
            "per_class_f1": [float(v) for v in f1],
            "loss": loss,
        }
        (out / f"eval_{args.split}.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args))
    rows = parameter_gradcheck_report(replace(run.model, channels=3, classes=4),
                                      run.train.loss, seed=run.train.seed)
    print(f"{'block':18s} max-rel-error")
    for name, err in rows:
        print(f"{name:18s} {err:.3e}  {'ok' if err < GRADCHECK_TOLERANCE else 'FAIL'}")
    failed = [name for name, err in rows if err >= GRADCHECK_TOLERANCE]
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}")
        return 1
    print("gradient check passed")
    return 0


def _grid_list(flag: str, text: str | None, parse=str, absent=None) -> list:
    """At least one comma-separated value, each ``parse``d (only ``int``
    can fail), and no two equal: a repeated value would train one grid point
    twice and count its score twice.  An absent flag (``text`` None) gives
    ``[absent]``."""
    if text is None:
        return [absent]
    try:
        values = [parse(v.strip()) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got '{text}'") from None
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{flag} repeats {repeated} in '{text}'")
    if not values:
        raise ConfigError(f"{flag} must name at least one grid value")
    return values


def ablate(run: RunConfig, data_dir: str, cells: list[str], strategies: list[str],
           batch_sizes: list[int], seeds: list[int], out: Path) -> list[dict]:
    """Train each grid point once per seed and return one row per point.

    A point merges its strategy, batch size and seed, then its cell's
    [model] and [loss] overrides, over ``run``.  The data is read once, after
    every point's RunConfig is made and run directories checked for every
    seed.  Each seed's run directory is
    ``out/<cell>_<strategy>_b<batch size>_s<seed>``.  A seed whose
    training diverges ends its point, whose row then names that seed and
    says why, and lists the seeds that finished but no mean or spread; any
    other error is not the seed's and ends the grid.
    """
    points = []
    for cell, strategy, bs in itertools.product(cells, strategies, batch_sizes):
        runs = []
        for seed in seeds:
            sections = {s: dict(v) for s, v in run.sections.items()}
            grid = {"train": {"strategy": strategy, "batch_size": bs, "seed": seed}}
            _merge(sections, grid, "the ablation grid")
            _merge(sections, COMPONENT_CELLS[cell], f"ablation cell '{cell}'")
            runs.append((RunConfig(sections), _out_dir(out / f"{cell}_{strategy}_b{bs}_s{seed}")))
        points.append((cell, strategy, bs, runs))
    splits = prepare_splits(load_recordings(data_dir), run.data)

    rows = []
    for cell, strategy, bs, runs in points:
        scores, status, message = [], "ok", ""
        for seed_run, cell_out in runs:
            seed = seed_run.train.seed
            try:
                result = _train_run(seed_run, splits, cell_out)
                scores.append(result.history[-1]["mean_f1"])
            except NumericError as e:
                status, message = "failed", f"seed {seed}: {e}"
                print(f"cell {cell}/{strategy}/b{bs} seed {seed} failed: {e}", file=sys.stderr)
                break
        row = {
            "cell": cell,
            "strategy": strategy,
            "batch_size": bs,
            "disable": COMPONENT_CELLS[cell]["model"]["disable"],
            "seeds": ";".join(str(s) for s in seeds),
            "status": status,
            "f1_mean": "",
            "f1_std": "",
            "f1_per_seed": ";".join(f"{s:.6f}" for s in scores),
            "message": message,
        }
        # a failed point has no mean or spread: not every seed finished
        if status == "ok":
            f1_mean, f1_std = statistics.mean(scores), statistics.pstdev(scores)
            row.update(f1_mean=f"{f1_mean:.6f}", f1_std=f"{f1_std:.6f}")
            print(f"cell {cell}/{strategy}/b{bs}: mean F1 {f1_mean:.4f} +- {f1_std:.4f}")
        rows.append(row)
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args))
    cells = _grid_list("--cells", args.cells)
    for cell in cells:
        if cell not in COMPONENT_CELLS:
            raise ConfigError(
                f"unknown ablation cell '{cell}' (expected one of {sorted(COMPONENT_CELLS)})"
            )
    strategies = _grid_list("--strategies", args.strategies, absent=run.train.strategy)
    batch_sizes = _grid_list("--batch-sizes", args.batch_sizes, int, run.train.batch_size)
    seeds = _grid_list("--seeds", args.seeds, int, run.train.seed)
    out = _out_dir(args.out)
    rows = ablate(run, args.data, cells, strategies, batch_sizes, seeds, out)

    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "ablation.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a ConfigError, not argparse's exit 2 (the data-error
    code); ``--help`` still exits 0; a prefix of a flag is not that flag."""

    def __init__(self, **kw):
        super().__init__(allow_abbrev=False, **kw)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frameattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help="INI config file, such as a run directory's run_config.ini")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override any config entry")

    p = sub.add_parser("datagen", help="generate synthetic sessions")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-plan", action="store_true", help="emit per-epoch batch plans as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="verify gradients of the configured model and "
                       "loss on 3 channels and 4 classes, seeded by train.seed")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run an ablation grid")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cells", default="baseline,intra,inter,both,full")
    p.add_argument("--strategies",
                   help="comma-separated batch strategies (default: train.strategy)")
    p.add_argument("--batch-sizes", dest="batch_sizes",
                   help="comma-separated batch sizes (default: train.batch_size)")
    p.add_argument("--seeds", help="comma-separated seeds, each trained once per grid point "
                   "(default: train.seed alone, so one seed)")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FrameAttnError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
