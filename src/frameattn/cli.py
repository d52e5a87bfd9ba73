"""Operator commands: datagen | train | eval | gradcheck | ablate.

Configuration has one path: defaults, then a config file, then command-line
flags and ``--set section.key=value``.  The defaults are the field defaults
of ``ModelConfig``, ``SynthConfig``, ``TrainConfig`` and ``LossConfig``; only
the [data] section and ``model.disable`` are listed here.  The config file
is INI-style (``key = value`` under [model]/[data]/[synthetic]/[train]/[loss]
sections) or a ``run_config.json``, whose seed replaces ``--seed``.  Exit
codes: 0 success, 1 configuration or checkpoint error, 2 data error,
3 numeric abort.

A run directory holds ``run_config.json`` (the resolved configuration),
``normalizer.json`` (train-split channel stats), ``metrics.jsonl``,
``checkpoint.bin`` and, with ``--dump-plan``, ``plans.jsonl``; ``eval``
needs only the checkpoint's directory and the data.  ``train`` writes one
run directory and ``ablate`` one per grid point and seed.  An ablation cell
is a set of config overrides (``COMPONENT_CELLS``), merged over the run's
configuration after the grid point's strategy and batch size.
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

from .batching import SHUFFLED, STRATEGIES, TIME_SEQUENTIAL
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
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    FrameAttnError,
    NumericError,
    ShapeError,
)
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

# Component ablation cells, as config overrides, mirroring the five-row
# component study (baseline / intra / inter / both / full) plus a
# frame-isolated reference.  baseline to both train with plain cross-entropy.
_CROSS_ENTROPY = {"loss": {"lam": "0"}}
COMPONENT_CELLS = {
    "baseline": {"model": {"disable": "intra,inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "intra": {"model": {"disable": "inter,pe,moe,gate"}, **_CROSS_ENTROPY},
    "inter": {"model": {"disable": "intra,moe,gate"}, **_CROSS_ENTROPY},
    "both": {"model": {"disable": "moe,gate"}, **_CROSS_ENTROPY},
    "full": {"model": {"disable": ""}},
    # No positional or across-frame pathways, batches shuffled: the model
    # sees every frame in isolation.
    "isolated": {"model": {"disable": "inter,pe,gate"}, "train": {"strategy": SHUFFLED}},
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


def _normalize_strategy(value: str) -> str:
    v = value.strip().lower().replace("-", "_")
    if v not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{value}' (expected one of {STRATEGIES})")
    return v


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
    """Resolved configuration: defaults <- config file <- CLI overrides."""

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
        return self.build(
            TrainConfig,
            "train",
            strategy=_normalize_strategy(self.sections["train"]["strategy"]),
            seed=self.seed,
            loss=self.build(LossConfig, "loss"),
        )

    def resolved(self) -> dict:
        return {"seed": self.seed, **{s: dict(v) for s, v in self.sections.items()}}

    def write_resolved(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run_config.json").write_text(
            json.dumps(self.resolved(), indent=2, sort_keys=True) + "\n"
        )


def _overrides_from_args(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    # A flag overrides the config key its dest names; keys are unique
    # across sections.
    ov: dict[str, dict[str, str]] = {s: {} for s in DEFAULTS}
    for section, keys in DEFAULTS.items():
        for key in keys:
            value = getattr(args, key, None)
            if value is not None:
                ov[section][key] = str(value)
    for item in getattr(args, "set", None) or []:
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


def _train_run(run: RunConfig, splits: DataSplits, out: Path, dump_plans=False) -> TrainResult:
    """Train one run into the run directory ``out``.  Both configs are built,
    and so checked, before any file is written."""
    model_cfg = _model_config_for(run, splits)
    train_cfg = run.train_config()
    run.write_resolved(out)
    _write_normalizer(splits.stats, out)
    return train(
        model_cfg, splits.train, splits.val, splits.test, train_cfg, out, dump_plans=dump_plans
    )


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    result = _train_run(run, _load_splits(args.data, run), Path(args.out), args.dump_plan)
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
    stats = _read_normalizer(run_dir / "normalizer.json")
    splits = _load_splits(args.data, run, stats=stats)
    model_cfg = _model_config_for(run, splits)

    arrays = checkpoint_load(ckpt_path)
    if "cls.w" in arrays and arrays["cls.w"].shape[1] != splits.classes:
        raise ConfigError(
            f"class count mismatch: checkpoint has {arrays['cls.w'].shape[1]}, "
            f"data has {splits.classes}"
        )
    model = AttentionModel(model_cfg, seed=run.seed)
    model.load_state(arrays)

    frames = {"train": splits.train, "val": splits.val, "test": splits.test}[args.split]
    train_cfg = run.train_config()
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


def ablate(run: RunConfig, splits: DataSplits, cells: list[str], strategies: list[str],
           batch_sizes: list[int], seeds: list[int], out: Path) -> list[dict]:
    """Train each grid point once per seed and return one row per point.

    A point merges its strategy and batch size, then its cell's overrides,
    over ``run``; points that resolve alike (a cell that pins its strategy)
    train once.  Each seed's run directory is
    ``out/<cell>_<strategy>_b<batch size>_s<seed>``.  A failing seed ends
    its point, whose row then says why.
    """
    points: dict[tuple[str, str, int], dict] = {}
    for cell, strategy, bs in itertools.product(cells, strategies, batch_sizes):
        sections = {s: dict(v) for s, v in run.sections.items()}
        _merge(sections, {"train": {"strategy": strategy, "batch_size": bs}}, "the ablation grid")
        _merge(sections, COMPONENT_CELLS[cell], f"ablation cell '{cell}'")
        points.setdefault((cell, sections["train"]["strategy"], bs), sections)

    rows = []
    for (cell, strategy, bs), sections in points.items():
        scores, status, message = [], "ok", ""
        for seed in seeds:
            cell_out = out / f"{cell}_{strategy}_b{bs}_s{seed}"
            try:
                result = _train_run(RunConfig(sections, seed), splits, cell_out)
                scores.append(result.test_report.mean_f1)
            except FrameAttnError as e:
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
    strategies = [_normalize_strategy(s) for s in args.strategies.split(",") if s.strip()]
    batch_sizes = _int_list("--batch-sizes", args.batch_sizes)
    too_small = [bs for bs in batch_sizes if bs < 1]
    if too_small:
        raise ConfigError(f"--batch-sizes must be >= 1, got {too_small} in '{args.batch_sizes}'")
    seeds = _int_list("--seeds", args.seeds)
    if not (cells and strategies and batch_sizes and seeds):
        raise ConfigError("ablation grid must have at least one cell/strategy/batch size/seed")
    splits = _load_splits(args.data, run)
    out = Path(args.out)
    rows = ablate(run, splits, cells, strategies, batch_sizes, seeds, out)

    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "ablation.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frameattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="INI file or run_config.json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override any config entry")

    p = sub.add_parser("datagen", help="generate synthetic sessions")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--sessions", type=int)
    p.add_argument("--session-len", dest="session_len", type=int)
    p.add_argument("--context", choices=["true", "false"])
    p.add_argument("--noise", type=float)
    p.add_argument("--window", type=int)
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train a model")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--strategy")
    p.add_argument("--disable", help="comma list: intra,inter,pe,moe,gate")
    p.add_argument("--heads", type=int)
    p.add_argument("--experts", type=int)
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--window", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--lam", type=float)
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
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
