"""Operator commands: datagen | train | eval | gradcheck | ablate.

Configuration comes from an INI-style file (``key = value`` under
[model]/[data]/[synthetic]/[train]/[loss] sections), overridable with
command-line flags; every run echoes its fully resolved configuration to
``run_config.json`` in the output directory.  Exit codes: 0 success,
1 configuration or checkpoint error, 2 data error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import statistics
import sys
from dataclasses import asdict
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
from .training import TrainConfig, checkpoint_load, evaluate, train

GRADCHECK_TOLERANCE = 1e-4

DEFAULTS = {
    "model": {
        "d_model": "128",
        "heads": "8",
        "experts": "8",
        "dropout": "0.5",
        "conv_blocks": "3",
        "kernel": "5",
        "disable": "",
    },
    "data": {
        "window": "24",
        "step": "12",
        "label_rule": "majority",
        "val_sessions": "1",
        "test_sessions": "1",
    },
    "synthetic": {
        "classes": "4",
        "channels": "3",
        "sessions": "6",
        "session_len": "6656",
        "mean_dwell_windows": "4.0",
        "context": "true",
        "noise": "0.4",
    },
    "train": {
        "epochs": "150",
        "batch_size": "128",
        "lr": "1e-3",
        "weight_decay": "1e-2",
        "plateau_patience": "10",
        "lr_factor": "0.5",
        "min_lr": "1e-6",
        "strategy": TIME_SEQUENTIAL,
        "clip_norm": "0",
    },
    "loss": {
        "lam": "0.5",
        "beta": "0.25",
        "gamma": "2.0",
    },
}

# Component ablation presets mirroring the five-row component study
# (baseline / intra / inter / both / full) plus a frame-isolated reference.
# Non-full presets train with plain cross-entropy (focal disabled).
COMPONENT_CELLS = {
    "baseline": {"disable": "intra,inter,pe,moe,gate,focal"},
    "intra": {"disable": "inter,pe,moe,gate,focal"},
    "inter": {"disable": "intra,moe,gate,focal"},
    "both": {"disable": "moe,gate,focal"},
    "full": {"disable": ""},
    # No positional or across-frame pathways, batches shuffled: the model
    # sees every frame in isolation.
    "isolated": {"disable": "inter,pe,gate", "strategy": SHUFFLED},
}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got '{value}'")


def _normalize_strategy(value: str) -> str:
    v = value.strip().lower().replace("-", "_")
    if v not in STRATEGIES:
        raise ConfigError(f"unknown strategy '{value}' (expected one of {STRATEGIES})")
    return v


class RunConfig:
    """Resolved configuration: defaults <- config file <- CLI overrides."""

    def __init__(self, sections: dict[str, dict[str, str]], seed: int):
        self.sections = sections
        self.seed = seed

    @classmethod
    def load(cls, config_path: str | None, overrides: dict[str, dict[str, str]], seed: int):
        sections = {name: dict(values) for name, values in DEFAULTS.items()}
        if config_path:
            path = Path(config_path)
            if not path.is_file():
                raise ConfigError(f"config file not found: {path}")
            parser = configparser.ConfigParser()
            try:
                parser.read(path)
            except configparser.Error as e:
                raise ConfigError(f"cannot parse config file {path}: {e}") from None
            for section in parser.sections():
                if section not in sections:
                    raise ConfigError(f"unknown config section [{section}] in {path}")
                for key, value in parser.items(section):
                    if key not in sections[section]:
                        raise ConfigError(f"unknown key '{key}' in section [{section}] of {path}")
                    sections[section][key] = value
        for section, values in overrides.items():
            for key, value in values.items():
                if value is None:
                    continue
                if key not in sections[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                sections[section][key] = str(value)
        return cls(sections, seed)

    def _get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def _int(self, section: str, key: str) -> int:
        try:
            return int(self._get(section, key))
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be an integer, got '{self._get(section, key)}'") from None

    def _float(self, section: str, key: str) -> float:
        try:
            return float(self._get(section, key))
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be a number, got '{self._get(section, key)}'") from None

    @property
    def disable_flags(self) -> set[str]:
        raw = self._get("model", "disable")
        return {v.strip() for v in raw.split(",") if v.strip()}

    def window_spec(self) -> WindowSpec:
        return WindowSpec(
            window=self._int("data", "window"),
            step=self._int("data", "step"),
            label_rule=self._get("data", "label_rule"),
        )

    def loss_config(self) -> LossConfig:
        lam = 0.0 if "focal" in self.disable_flags else self._float("loss", "lam")
        return LossConfig(
            lam=lam,
            beta=self._float("loss", "beta"),
            gamma=self._float("loss", "gamma"),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self._int("train", "epochs"),
            batch_size=self._int("train", "batch_size"),
            lr=self._float("train", "lr"),
            weight_decay=self._float("train", "weight_decay"),
            plateau_patience=self._int("train", "plateau_patience"),
            lr_factor=self._float("train", "lr_factor"),
            min_lr=self._float("train", "min_lr"),
            strategy=_normalize_strategy(self._get("train", "strategy")),
            seed=self.seed,
            clip_norm=self._float("train", "clip_norm"),
            loss=self.loss_config(),
        )

    def synth_config(self) -> SynthConfig:
        return SynthConfig(
            classes=self._int("synthetic", "classes"),
            channels=self._int("synthetic", "channels"),
            sessions=self._int("synthetic", "sessions"),
            session_len=self._int("synthetic", "session_len"),
            window=self._int("data", "window"),
            mean_dwell_windows=self._float("synthetic", "mean_dwell_windows"),
            context=_parse_bool(self._get("synthetic", "context")),
            noise=self._float("synthetic", "noise"),
            seed=self.seed,
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
        if section not in ov:
            raise ConfigError(f"unknown config section '{section}' in --set {item}")
        ov[section][key.strip()] = value.strip()
    return ov


def _load_splits(data_dir: str, run: RunConfig, stats: NormStats | None = None) -> DataSplits:
    recordings = load_recordings(data_dir)
    return prepare_splits(
        recordings,
        run.window_spec(),
        val_sessions=run._int("data", "val_sessions"),
        test_sessions=run._int("data", "test_sessions"),
        stats=stats,
    )


def _model_config_for(run: RunConfig, splits: DataSplits) -> ModelConfig:
    channels = splits.train[0].data.shape[1] if splits.train else splits.test[0].data.shape[1]
    flags = run.disable_flags
    return ModelConfig(
        window_len=run._int("data", "window"),
        channels=channels,
        classes=splits.classes,
        d_model=run._int("model", "d_model"),
        heads=run._int("model", "heads"),
        experts=run._int("model", "experts"),
        dropout=run._float("model", "dropout"),
        conv_blocks=run._int("model", "conv_blocks"),
        kernel=run._int("model", "kernel"),
        disabled=frozenset(flags - {"focal"}),
    )


def _write_normalizer(stats: NormStats, out_dir: Path) -> None:
    (out_dir / "normalizer.json").write_text(
        json.dumps(
            {"mean": [float(v) for v in stats.mean], "std": [float(v) for v in stats.std]},
            indent=2,
        )
        + "\n"
    )


def _read_normalizer(path: Path) -> NormStats:
    if not path.is_file():
        raise DataError(f"normalizer stats not found: {path}")
    try:
        obj = json.loads(path.read_text())
        mean = np.array(obj["mean"], dtype=np.float64)
        std = np.array(obj["std"], dtype=np.float64)
        if mean.ndim != 1 or mean.shape != std.shape:
            raise ValueError(f"mean {mean.shape} and std {std.shape} are not equal-length lists")
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"malformed normalizer stats {path}: {e!r}") from None
    return NormStats(mean=mean, std=std)


def cmd_datagen(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    cfg = run.synth_config()
    recordings = generate_synthetic(cfg)
    out = Path(args.out)
    manifest = {
        "seed": cfg.seed,
        "sample_rate": 1.0,
        "config": asdict(cfg),
        "sessions": [r.session_id for r in recordings],
    }
    write_sessions(recordings, out, manifest)
    run.write_resolved(out)
    print(f"wrote {len(recordings)} sessions to {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    splits = _load_splits(args.data, run)
    model_cfg = _model_config_for(run, splits)
    train_cfg = run.train_config()
    out = Path(args.out)
    run.write_resolved(out)
    _write_normalizer(splits.stats, out)
    result = train(
        model_cfg,
        splits.train,
        splits.val,
        splits.test,
        train_cfg,
        out,
        dump_plans=args.dump_plan,
    )
    print(
        f"best epoch {result.best_epoch} (val mean F1 {result.best_val_f1:.4f}); "
        f"test mean F1 {result.test_report.mean_f1:.4f}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt_path = Path(args.checkpoint)
    run_dir = ckpt_path.parent
    config_path = args.config or (run_dir / "run_config.json")
    if Path(config_path).name == "run_config.json" and Path(config_path).is_file():
        resolved = json.loads(Path(config_path).read_text())
        seed = int(resolved.pop("seed", args.seed))
        sections = {s: {k: str(v) for k, v in vals.items()} for s, vals in resolved.items()}
        run = RunConfig(sections, seed)
    else:
        run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
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
    loss, report = evaluate(
        model, frames, run.train_config().batch_size, run.loss_config(), splits.classes
    )
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
    cfg = tiny_gradcheck_config()
    rows = parameter_gradcheck_report(cfg, LossConfig(lam=0.5), seed=args.seed)
    failed = []
    print(f"{'block':18s} max-rel-error")
    for name, err in rows:
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name:18s} {err:.3e}  {status}")
        if err >= GRADCHECK_TOLERANCE:
            failed.append(name)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}")
        return 1
    print("gradient check passed")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    run = RunConfig.load(args.config, _overrides_from_args(args), args.seed)
    splits = _load_splits(args.data, run)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run.write_resolved(out)

    cells = [c.strip() for c in args.cells.split(",") if c.strip()]
    for cell in cells:
        if cell not in COMPONENT_CELLS:
            raise ConfigError(
                f"unknown ablation cell '{cell}' (expected one of {sorted(COMPONENT_CELLS)})"
            )
    strategies = [_normalize_strategy(s) for s in args.strategies.split(",") if s.strip()]
    batch_sizes = [int(b) for b in args.batch_sizes.split(",") if b.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not (cells and strategies and batch_sizes and seeds):
        raise ConfigError("ablation grid must have at least one cell/strategy/batch size/seed")

    grid = []
    seen = set()
    for cell in cells:
        preset = COMPONENT_CELLS[cell]
        for strategy in strategies:
            eff_strategy = preset.get("strategy", strategy)
            for bs in batch_sizes:
                key = (cell, eff_strategy, bs)
                if key not in seen:
                    seen.add(key)
                    grid.append(key)

    rows = []
    for cell, strategy, bs in grid:
        preset = COMPONENT_CELLS[cell]
        scores = []
        status = "ok"
        message = ""
        for seed in seeds:
            cell_run = RunConfig(
                {s: dict(v) for s, v in run.sections.items()}, seed
            )
            cell_run.sections["model"]["disable"] = preset["disable"]
            cell_run.sections["train"]["strategy"] = strategy
            cell_run.sections["train"]["batch_size"] = str(bs)
            cell_out = out / f"{cell}_{strategy}_b{bs}_s{seed}"
            try:
                model_cfg = _model_config_for(cell_run, splits)
                result = train(
                    model_cfg,
                    splits.train,
                    splits.val,
                    splits.test,
                    cell_run.train_config(),
                    cell_out,
                )
                scores.append(result.test_report.mean_f1)
            except FrameAttnError as e:
                status = "failed"
                message = str(e)
                print(f"cell {cell}/{strategy}/b{bs} seed {seed} failed: {e}", file=sys.stderr)
                break
        f1_mean = statistics.mean(scores) if scores else float("nan")
        f1_std = statistics.pstdev(scores) if len(scores) > 1 else 0.0
        rows.append(
            {
                "cell": cell,
                "strategy": strategy,
                "batch_size": bs,
                "disable": preset["disable"],
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

    table_path = out / "ablation.csv"
    with open(table_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frameattn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="INI config file")
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
    p.add_argument("--disable", help="comma list: intra,inter,pe,moe,gate,focal")
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
    p.add_argument("--batch-size", dest="batch_size", type=int)
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
