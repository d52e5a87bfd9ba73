"""Operator commands: datagen | train | eval | gradcheck | ablate.

Configuration has one path: defaults, then a config file, then
``--set section.key=value``; no other flag names a config key.  The defaults
are the field defaults of ``ModelConfig``, ``SynthConfig``, ``TrainConfig``
and ``LossConfig``; only the [data] section and ``model.disable`` are listed
here.  The config file is INI-style (``key = value`` under
[model]/[data]/[synthetic]/[train]/[loss] sections) or a ``run_config.json``,
whose seed replaces ``--seed``.  Every failure, a malformed command line
included, is a ``FrameAttnError`` and exits with its class's ``exit_code``
(see ``errors.py``).

A run directory holds ``run_config.json`` (the resolved configuration),
``normalizer.json`` (train-split channel stats), ``metrics.jsonl``,
``checkpoint.bin`` and, with ``--dump-plan``, ``plans.jsonl``; ``eval``
needs only the checkpoint's directory and the data.  ``train`` writes one
run directory and ``ablate`` one per grid point and seed.  An ablation cell
overrides only [model] and [loss] (``COMPONENT_CELLS``); the grid point sets
the strategy and batch size.  Every ``TrainConfig`` a command uses is built,
and so checked, before any data is read.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import statistics
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from .batching import TIME_SEQUENTIAL
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
from .errors import ConfigError, DataError, FrameAttnError, NumericError
from .losses import LossConfig
from .model import (
    AttentionModel,
    ModelConfig,
    parameter_gradcheck_report,
    tiny_gradcheck_config,
)
from .training import TrainConfig, TrainResult, checkpoint_load, evaluate, train

GRADCHECK_TOLERANCE = 1e-4


def _field_defaults(cls) -> dict[str, str]:
    # Fields without a plain default come from the data or another section;
    # the seed comes from --seed and the synthetic window from [data].
    return {
        f.name: str(f.default)
        for f in fields(cls)
        if f.default is not MISSING and f.name not in ("seed", "window")
    }


DEFAULTS = {
    "model": {**_field_defaults(ModelConfig), "disable": ""},
    "data": {
        "window": "24",
        "step": "12",
        "label_rule": "majority",
        "val_sessions": "1",
        "test_sessions": "1",
    },
    "synthetic": _field_defaults(SynthConfig),
    "train": _field_defaults(TrainConfig),
    "loss": _field_defaults(LossConfig),
}

# Component ablation cells, as [model] and [loss] overrides, mirroring the
# five-row component study (baseline / intra / inter / both / full) plus a
# reference without the across-frame stages.  baseline to both train with
# plain cross-entropy.  The ablation grid sets each point's [train] strategy
# and batch size.
_CROSS_ENTROPY = {"loss": {"lam": "0"}}
COMPONENT_CELLS = {
    "baseline": {"model": {"disable": "intra,inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "intra": {"model": {"disable": "inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "inter": {"model": {"disable": "intra,moe,gate"}, **_CROSS_ENTROPY},
    "both": {"model": {"disable": "moe,gate"}, **_CROSS_ENTROPY},
    "full": {"model": {"disable": ""}},
    # No inter-frame attention, positional code or gate.  Not yet frame-
    # isolated: the multi-head stage still attends across the batch
    # (ROADMAP item 1).
    "isolated": {"model": {"disable": "inter,pe,gate"}},
}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


# Parser and expectation per field annotation (a string: the config
# dataclasses' modules postpone annotation evaluation).
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_parse_bool, "a boolean"),
    "str": (str, "a string"),
}


def _read_config(path: Path, seed: int) -> tuple[dict, int]:
    """The sections of an INI file or a ``run_config.json``, and the seed:
    the JSON file's own, if it has one."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        if path.suffix != ".json":
            parser = configparser.ConfigParser()
            parser.read(path)
            return {s: dict(parser.items(s)) for s in parser.sections()}, seed
        given = json.loads(path.read_text())
    except (configparser.Error, OSError, ValueError) as e:
        raise ConfigError(f"cannot parse config file {path}: {e}") from None
    if not isinstance(given, dict):
        raise ConfigError(f"config file {path} must hold a JSON object of sections")
    raw = given.pop("seed", seed)
    try:
        return given, int(str(raw))
    except ValueError:
        raise ConfigError(f"seed in {path} must be an integer, got {raw!r}") from None


def _merge(sections: dict[str, dict[str, str]], given: dict, source: str) -> None:
    """Overlay ``given`` ({section: {key: value}}) onto ``sections``; an
    unknown section or key is a ConfigError naming ``source``."""
    for section, values in given.items():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}] in {source}")
        if not isinstance(values, dict):
            raise ConfigError(f"section [{section}] in {source} must map keys to values")
        for key, value in values.items():
            if key not in sections[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}] of {source}")
            sections[section][key] = str(value)


class RunConfig:
    """Resolved configuration: defaults <- config file <- ``--set`` overrides."""

    def __init__(self, sections: dict[str, dict[str, str]], seed: int):
        self.sections = sections
        self.seed = seed

    @classmethod
    def load(cls, config_path: str | Path | None, overrides: dict[str, dict[str, str]], seed: int):
        sections = {name: dict(values) for name, values in DEFAULTS.items()}
        if config_path:
            given, seed = _read_config(Path(config_path), seed)
            _merge(sections, given, str(config_path))
        _merge(sections, overrides, "the command line")
        return cls(sections, seed)

    def value(self, section: str, key: str, kind: str):
        raw = self.sections[section][key]
        parse, expected = _PARSERS[kind]
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {expected}, got '{raw}'") from None

    def build(self, cls, section: str, **given):
        """``cls(**given)``, with every other field parsed by its annotation
        from the same-named key of ``[section]``."""
        for f in fields(cls):
            if f.name not in given:
                given[f.name] = self.value(section, f.name, f.type)
        return cls(**given)

    def train_config(self) -> TrainConfig:
        return self.build(TrainConfig, "train", seed=self.seed, loss=self.build(LossConfig, "loss"))

    def resolved(self) -> dict:
        return {"seed": self.seed, **{s: dict(v) for s, v in self.sections.items()}}

    def write_resolved(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run_config.json").write_text(
            json.dumps(self.resolved(), indent=2, sort_keys=True) + "\n"
        )


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


def _load_splits(data_dir: str, run: RunConfig, stats: NormStats | None = None) -> DataSplits:
    return prepare_splits(
        load_recordings(data_dir),
        run.build(WindowSpec, "data"),
        val_sessions=run.value("data", "val_sessions", "int"),
        test_sessions=run.value("data", "test_sessions", "int"),
        stats=stats,
    )


def _model_config_for(run: RunConfig, splits: DataSplits) -> ModelConfig:
    return run.build(
        ModelConfig,
        "model",
        window_len=run.value("data", "window", "int"),
        channels=splits.stats.mean.size,
        classes=splits.classes,
        disabled=frozenset(v.strip() for v in run.sections["model"]["disable"].split(",")
                           if v.strip()),
    )


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


def cmd_datagen(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    cfg = run.build(
        SynthConfig, "synthetic", window=run.value("data", "window", "int"), seed=run.seed
    )
    recordings = generate_synthetic(cfg)
    out = Path(args.out)
    sessions = [r.session_id for r in recordings]
    write_sessions(recordings, out, {"seed": cfg.seed, "config": asdict(cfg), "sessions": sessions})
    run.write_resolved(out)
    print(f"wrote {len(recordings)} sessions to {out}")
    return 0


def _train_run(run: RunConfig, train_cfg: TrainConfig, splits: DataSplits, out: Path,
               dump_plans=False) -> TrainResult:
    """Train one run of ``run``'s ``train_cfg`` into the run directory
    ``out``.  The model config is built, and so checked, before any file is
    written."""
    model_cfg = _model_config_for(run, splits)
    run.write_resolved(out)
    _write_normalizer(splits.stats, out)
    return train(
        model_cfg, splits.train, splits.val, splits.test, train_cfg, out, dump_plans=dump_plans
    )


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    train_cfg = run.train_config()
    splits = _load_splits(args.data, run)
    result = _train_run(run, train_cfg, splits, Path(args.out), args.dump_plan)
    print(
        f"best epoch {result.best_epoch} (val mean F1 {result.best_val_f1:.4f}); "
        f"test mean F1 {result.test_report.mean_f1:.4f}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt_path = Path(args.checkpoint)
    run_dir = ckpt_path.parent
    saved = run_dir / "run_config.json"
    config = args.config or (saved if saved.is_file() else None)
    run = RunConfig.load(config, _overrides_from_args(args), args.seed)
    train_cfg = run.train_config()
    stats = _read_normalizer(run_dir / "normalizer.json")
    splits = _load_splits(args.data, run, stats=stats)
    model_cfg = _model_config_for(run, splits)

    model = AttentionModel(model_cfg, seed=run.seed)
    model.load_state(checkpoint_load(ckpt_path))

    frames = {"train": splits.train, "val": splits.val, "test": splits.test}[args.split]
    loss, report = evaluate(model, frames, train_cfg.batch_size, train_cfg.loss, splits.classes)
    print(f"split {args.split}: mean F1 {report.mean_f1:.6f}, loss {loss:.6f}")
    print("class  tp  fp  fn  f1")
    for c in range(report.classes):
        print(
            f"{c:5d} {report.tp[c]:3d} {report.fp[c]:3d} {report.fn[c]:3d} "
            f"{report.per_class_f1[c]:.4f}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = {
            "split": args.split,
            "mean_f1": report.mean_f1,
            "per_class_f1": [float(v) for v in report.per_class_f1],
            "loss": loss,
        }
        (out / f"eval_{args.split}.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    rows = parameter_gradcheck_report(tiny_gradcheck_config(), LossConfig(lam=0.5), seed=args.seed)
    print(f"{'block':18s} max-rel-error")
    for name, err in rows:
        print(f"{name:18s} {err:.3e}  {'ok' if err < GRADCHECK_TOLERANCE else 'FAIL'}")
    failed = [name for name, err in rows if err >= GRADCHECK_TOLERANCE]
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}")
        return 1
    print("gradient check passed")
    return 0


def _int_list(flag: str, text: str) -> list[int]:
    """Comma-separated distinct integers: a repeated value would train one
    grid point twice and count its score twice."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got '{text}'") from None
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{flag} repeats {repeated} in '{text}'")
    return values


def ablate(run: RunConfig, data_dir: str, cells: list[str], strategies: list[str],
           batch_sizes: list[int], seeds: list[int], out: Path) -> list[dict]:
    """Train each grid point once per seed and return one row per point.

    A point merges its strategy and batch size, then its cell's [model] and
    [loss] overrides, over ``run``.  The data is read once, after every
    point's ``TrainConfig`` is built for every seed.  Each seed's run
    directory is ``out/<cell>_<strategy>_b<batch size>_s<seed>``.  A seed whose
    training diverges ends its point, whose row then says why; any other
    error is not the seed's and ends the grid.
    """
    points = []
    for cell, strategy, bs in itertools.product(cells, strategies, batch_sizes):
        sections = {s: dict(v) for s, v in run.sections.items()}
        _merge(sections, {"train": {"strategy": strategy, "batch_size": bs}}, "the ablation grid")
        _merge(sections, COMPONENT_CELLS[cell], f"ablation cell '{cell}'")
        train_cfgs = [RunConfig(sections, seed).train_config() for seed in seeds]
        points.append((cell, strategy, bs, sections, train_cfgs))
    splits = _load_splits(data_dir, run)

    rows = []
    for cell, strategy, bs, sections, train_cfgs in points:
        scores, status, message = [], "ok", ""
        for train_cfg in train_cfgs:
            seed = train_cfg.seed
            cell_out = out / f"{cell}_{strategy}_b{bs}_s{seed}"
            try:
                result = _train_run(RunConfig(sections, seed), train_cfg, splits, cell_out)
                scores.append(result.test_report.mean_f1)
            except NumericError as e:
                status, message = "failed", str(e)
                print(f"cell {cell}/{strategy}/b{bs} seed {seed} failed: {e}", file=sys.stderr)
                break
        f1_mean = statistics.mean(scores) if scores else float("nan")
        f1_std = statistics.pstdev(scores) if len(scores) > 1 else 0.0
        rows.append(
            {
                "cell": cell,
                "strategy": strategy,
                "batch_size": bs,
                "disable": sections["model"]["disable"],
                "seeds": ";".join(str(s) for s in seeds),
                "status": status,
                "f1_mean": f"{f1_mean:.6f}" if scores else "",
                "f1_std": f"{f1_std:.6f}" if scores else "",
                "f1_per_seed": ";".join(f"{s:.6f}" for s in scores),
                "message": message,
            }
        )
        if status == "ok":
            print(f"cell {cell}/{strategy}/b{bs}: mean F1 {f1_mean:.4f} +- {f1_std:.4f}")
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    for cell in cells:
        if cell not in COMPONENT_CELLS:
            raise ConfigError(
                f"unknown ablation cell '{cell}' (expected one of {sorted(COMPONENT_CELLS)})"
            )
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    batch_sizes = _int_list("--batch-sizes", args.batch_sizes)
    seeds = _int_list("--seeds", args.seeds)
    if not (cells and strategies and batch_sizes and seeds):
        raise ConfigError("ablation grid must have at least one cell/strategy/batch size/seed")
    out = Path(args.out)
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
    code); ``--help`` still exits 0."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="frameattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="INI file or run_config.json")
        p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("gradcheck", help="verify gradients on a tiny model")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run an ablation grid")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cells", default="baseline,intra,inter,both,full")
    p.add_argument("--strategies", default=TIME_SEQUENTIAL)
    p.add_argument("--batch-sizes", dest="batch_sizes", default="128")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FrameAttnError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
