import argparse
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameattn
from frameattn import cli, errors
from frameattn.cli import (
    COMPONENT_CELLS,
    DEFAULTS,
    RunConfig,
    ablate,
    main,
)
from frameattn.data import SynthConfig, WindowSpec
from frameattn.losses import LossConfig
from frameattn.model import ModelConfig
from frameattn.training import TrainConfig, checkpoint_load, checkpoint_save

TINY_CONFIG = """
[model]
d_model = 8
heads = 2
experts = 2
dropout = 0.1
conv_blocks = 1
kernel = 3

[data]
window = 16
step = 8

[synthetic]
sessions = 4
session_len = 900

[train]
epochs = 2
batch_size = 16
lr = 1e-3
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY_CONFIG)
    return str(path)


@pytest.fixture
def dataset(tmp_path, tiny_config):
    data_dir = tmp_path / "data"
    assert main(["datagen", "--config", tiny_config, "--out", str(data_dir),
                 "--set", "synthetic.seed=5"]) == 0
    return str(data_dir)


def test_datagen_default_session_count(tmp_path):
    out = tmp_path / "d"
    code = main(["datagen", "--out", str(out), "--set", "synthetic.session_len=800",
                 "--set", "data.window=16"])
    assert code == 0
    assert len(list(out.glob("session_*.csv"))) == 6
    assert (out / "manifest.json").is_file()
    assert (out / "run_config.ini").is_file()


def test_datagen_same_seed_byte_identical(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["datagen", "--config", tiny_config, "--out", str(out),
                     "--set", "synthetic.seed=3"]) == 0
    for f in sorted(a.glob("*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_datagen_single_class_is_config_error(tmp_path):
    code = main(["datagen", "--out", str(tmp_path / "x"), "--set", "synthetic.classes=1"])
    assert code == 1


def test_datagen_refuses_another_sets_sessions_in_out(tmp_path, capsys):
    # load_recordings reads every CSV in a directory, so a leftover session
    # would silently join the new set
    out = tmp_path / "d"
    args = ["datagen", "--out", str(out), "--set", "synthetic.session_len=800",
            "--set", "data.window=16"]
    assert main([*args, "--set", "synthetic.sessions=7"]) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    capsys.readouterr()
    assert main([*args, "--set", "synthetic.sessions=5"]) == 1
    assert "session_05.csv, session_06.csv" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == first
    assert main([*args, "--set", "synthetic.sessions=7"]) == 0
    assert {f.name: f.read_bytes() for f in out.iterdir()} == first


def test_train_and_eval_round_trip(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--set", "train.seed=5",
    ])
    assert code == 0
    reported = capsys.readouterr().out
    assert "test mean F1" in reported
    reported_f1 = float(reported.rsplit("test mean F1", 1)[1].strip())

    assert (run_dir / "checkpoint.bin").is_file()
    assert (run_dir / "metrics.jsonl").is_file()
    assert (run_dir / "run_config.ini").is_file()
    assert (run_dir / "normalizer.json").is_file()

    code = main([
        "eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", dataset,
        "--split", "test", "--out", str(run_dir),
    ])
    assert code == 0
    eval_out = capsys.readouterr().out
    eval_f1 = float(eval_out.split("mean F1", 1)[1].split(",")[0].strip())
    assert eval_f1 == pytest.approx(reported_f1, abs=5e-5)
    record = json.loads((run_dir / "eval_test.json").read_text())
    assert set(record) == {"split", "mean_f1", "per_class_f1", "loss"}


def test_train_summary_reads_the_metrics_records(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
                 "--set", "train.epochs=3"]) == 0
    records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
    test = records[-1]
    assert test["split"] == "test"
    vals = [r for r in records if r["split"] == "val"]
    best = vals[test["epoch"]]
    assert best["mean_f1"] == max(r["mean_f1"] for r in vals)
    assert capsys.readouterr().out == (
        f"best epoch {test['epoch']} (val mean F1 {best['mean_f1']:.4f}); "
        f"test mean F1 {test['mean_f1']:.4f}\n"
    )


def test_eval_twice_is_identical(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)])
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", dataset]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_train_records_strategy_in_metrics(tmp_path, tiny_config, dataset):
    for strategy in ("time_sequential", "shuffled"):
        run_dir = tmp_path / strategy
        code = main([
            "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
            "--set", f"train.strategy={strategy}",
        ])
        assert code == 0
        records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert all(r["strategy"] == strategy for r in records)


def test_train_missing_data_dir_exit_2(tmp_path, tiny_config):
    code = main(["train", "--config", tiny_config, "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "run")])
    assert code == 2


@pytest.mark.parametrize(
    "files, message",
    [({"manifest.json": "{}"}, "no .csv session files in"),
     ({"session_00.csv": ""}, "empty session file:")],
    ids=["no-csv", "zero-byte-session"],
)
def test_train_unreadable_data_dir_exit_2(tmp_path, tiny_config, capsys, files, message):
    data_dir = tmp_path / "sessions"
    data_dir.mkdir()
    for name, text in files.items():
        (data_dir / name).write_text(text)
    code = main(["train", "--config", tiny_config, "--data", str(data_dir),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("train", "train.lr=-1", "lr must be > 0, got -1.0"),
        ("train", "train.strategy=bogus", "strategy must be one of"),
        ("train", "loss.lam=-1", "loss lam must be in [0, 1], got -1.0"),
        ("ablate", "train.lr=-1", "lr must be > 0, got -1.0"),
        # the plateau scheduler's floor may not lie above its starting lr
        ("train", "train.min_lr=1", "min_lr (1.0) must be <= lr (0.001)"),
        *[
            (command, setting, message)
            for command in ("train", "ablate", "eval", "datagen", "gradcheck")
            for setting, message in (
                ("model.heads=3", "d_model (128) must be divisible by heads (3)"),
                ("data.step=0", "step must satisfy 1 <= step <= window, got step=0, window=24"),
                ("data.val_sessions=0", "val_sessions and test_sessions must each be >= 1"),
            )
        ],
    ],
)
def test_train_config_error_exit_1_before_reading_data(tmp_path, capsys, command, setting,
                                                       message):
    # a missing data directory would exit 2, so exit 1 shows the config is
    # checked first; datagen and gradcheck read no data, but check every
    # section all the same, before writing or printing anything
    out = tmp_path / "out"
    args = [command, "--set", setting]
    if command != "gradcheck":
        args += ["--out", str(out)]
    if command not in ("datagen", "gradcheck"):
        args += ["--data", "/nonexistent"]
    if command == "eval":
        args += ["--checkpoint", write_run_dir(tmp_path / "run", '{"mean": [0], "std": [1]}')]
    code = main(args)
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["datagen", "train", "eval", "ablate"])
@pytest.mark.parametrize("nested", [False, True])
def test_out_that_is_a_file_exit_1_before_reading_data(tmp_path, capsys, command, nested):
    # mkdir fails on a file at --out or above it; a missing data directory
    # would exit 2, so exit 1 shows --out is checked first
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "run" if nested else blocker
    args = [command, "--out", str(out)]
    if command != "datagen":
        args += ["--data", "/nonexistent"]
    if command == "eval":
        args += ["--checkpoint", write_run_dir(tmp_path / "run", '{"mean": [0], "std": [1]}')]
    assert main(args) == 1
    assert f"cannot write to {out}: {blocker} exists and is not a directory" in (
        capsys.readouterr().err
    )
    assert blocker.read_text() == ""


def test_ablate_run_directory_that_is_a_file_exit_1_before_reading_data(tmp_path, capsys):
    out = tmp_path / "abl"
    out.mkdir()
    blocker = out / "full_time_sequential_b16_s1"
    blocker.write_text("")
    args = ["ablate", "--data", "/nonexistent", "--out", str(out), "--cells", "full",
            "--batch-sizes", "16", "--seeds", "0,1"]
    assert main(args) == 1
    assert f"cannot write to {blocker}: {blocker} exists" in capsys.readouterr().err
    assert sorted(out.iterdir()) == [blocker]


def test_train_disable_flags_build_baseline(tmp_path, tiny_config, dataset):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--set", "model.disable=intra,inter,pe,moe,gate", "--set", "loss.lam=0",
        "--set", "model.heads=2",
    ])
    assert code == 0
    resolved = RunConfig.load(run_dir / "run_config.ini", {}).sections
    assert resolved["model"]["disable"] == "intra,inter,pe,moe,gate"
    assert resolved["loss"]["lam"] == "0"


def test_train_unknown_disable_flag_exit_1(tmp_path, tiny_config, dataset, capsys):
    # "focal" is not a stage: plain cross-entropy is loss.lam=0
    for flag in ("warp", "focal"):
        code = main([
            "train", "--config", tiny_config, "--data", dataset,
            "--out", str(tmp_path / "run"), "--set", f"model.disable={flag}",
        ])
        assert code == 1
        assert f"unknown disable flags: ['{flag}']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_dump_plan_writes_partition(tmp_path, tiny_config, dataset):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--dump-plan",
    ])
    assert code == 0
    plans = [json.loads(l) for l in (run_dir / "plans.jsonl").read_text().splitlines()]
    assert len(plans) == 2  # one per epoch
    n = sum(len(b) for b in plans[0]["batches"])
    for plan in plans:
        flat = sorted(i for b in plan["batches"] for i in b)
        assert flat == list(range(n))


def test_train_without_dump_plan_removes_a_previous_runs_plans(tmp_path, tiny_config, dataset):
    # a run directory reused without --dump-plan holds no plans of the run before
    run_dir = tmp_path / "run"
    argv = ["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)]
    assert main([*argv, "--dump-plan"]) == 0
    assert (run_dir / "plans.jsonl").is_file()
    assert main([*argv, "--set", "train.batch_size=8"]) == 0
    assert not (run_dir / "plans.jsonl").exists()


def test_train_determinism_byte_identical_metrics(tmp_path, tiny_config, dataset):
    for name in ("a", "b"):
        assert main([
            "train", "--config", tiny_config, "--data", dataset,
            "--out", str(tmp_path / name), "--set", "train.seed=11",
        ]) == 0
    assert (tmp_path / "a/metrics.jsonl").read_bytes() == (tmp_path / "b/metrics.jsonl").read_bytes()
    assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()


@pytest.fixture
def four_class_run(tmp_path, tiny_config, dataset):
    """The 4-class data set and a run trained on it for one epoch."""
    run_dir = tmp_path / "run"
    assert main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
                 "--set", "train.epochs=1"]) == 0
    return Path(dataset), run_dir


def relabelled_copy(data_dir: Path, out: Path, relabel) -> str:
    """The sessions of ``data_dir`` in ``out``, each row's label mapped by
    ``relabel(label, row index)``."""
    out.mkdir()
    for session in sorted(data_dir.glob("session_*.csv")):
        header, *rows = session.read_text().splitlines()
        rows = [r.rsplit(",", 1) for r in rows]
        lines = [f"{head},{relabel(int(label), i)}" for i, (head, label) in enumerate(rows)]
        (out / session.name).write_text("\n".join([header, *lines]) + "\n")
    return str(out)


def test_eval_scores_with_the_checkpoints_classes(tmp_path, four_class_run, capsys):
    # class 3 relabelled 2: the data has 3 classes, the checkpoint 4, and
    # the absent class scores F1 0
    data_dir, run_dir = four_class_run
    data = relabelled_copy(data_dir, tmp_path / "data3", lambda label, i: min(label, 2))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", data,
                 "--out", str(tmp_path / "eval")])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(r.split()[0]) for r in rows] == [0, 1, 2, 3]
    assert rows[3].split()[1] == "0" and rows[3].split()[3] == "0"  # tp, fn
    per_class = json.loads((tmp_path / "eval/eval_test.json").read_text())["per_class_f1"]
    assert len(per_class) == 4 and per_class[3] == 0.0


def test_eval_label_outside_checkpoint_classes_exit_2(tmp_path, tiny_config, four_class_run,
                                                      capsys):
    data_dir, run_dir = four_class_run
    six = tmp_path / "data6"
    assert main(["datagen", "--config", tiny_config, "--out", str(six),
                 "--set", "synthetic.classes=6", "--set", "synthetic.seed=5"]) == 0
    seven = relabelled_copy(data_dir, tmp_path / "data7", lambda label, i: 7 if i == 3 else label)
    for data, label in ((str(six), 5), (seven, 7)):
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", data])
        assert code == 2
        assert f"label {label} in {data} is not one of the checkpoint's 4 classes" in (
            capsys.readouterr().err
        )


@pytest.mark.parametrize("arrays", [{"cls.w": np.zeros((8, 4))}, {"cls.b": np.zeros((1, 1))},
                                    {"cls.b": np.zeros(4)}], ids=["absent", "one-class", "rank-1"])
def test_eval_checkpoint_without_class_bias_exit_1(tmp_path, tiny_config, dataset, capsys,
                                                   arrays):
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}',
                               config=tiny_config)
    checkpoint_save(arrays, checkpoint)
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    assert "no (1, C) 'cls.b' record with C >= 2 classes" in capsys.readouterr().err


def test_ablate_flag_prefixes_are_usage_errors(capsys):
    # ablate has no --batch-size or --seed of its own (the grid sets every
    # cell's batch size and seed), and neither is taken as a prefix of
    # --batch-sizes or --seeds
    for flag, value in (("--batch-size", "8"), ("--seed", "3")):
        assert main(["ablate", "--data", "d", "--out", "o", flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_resolved_defaults_build_every_dataclass_as_its_defaults():
    run = RunConfig.load(None, {})
    assert run.data == WindowSpec() == WindowSpec(window=24, step=12)
    assert (run.data.val_sessions, run.data.test_sessions) == (1, 1)
    assert run.build(SynthConfig, "synthetic", window=24) == SynthConfig(window=24)
    assert run.train == TrainConfig()
    model = replace(run.model, channels=3, classes=4)
    assert model == ModelConfig(window_len=24, channels=3, classes=4)


# the resolved defaults as a run directory's run_config.ini: section order,
# key order and value spellings, [data]'s included, which WindowSpec's field
# defaults make
DEFAULT_RUN_CONFIG_INI = """\
[model]
d_model = 128
heads = 8
experts = 8
dropout = 0.5
conv_blocks = 3
kernel = 5
disable =\x20

[data]
window = 24
step = 12
label_rule = majority
val_sessions = 1
test_sessions = 1

[synthetic]
classes = 4
channels = 3
sessions = 6
session_len = 6656
mean_dwell_windows = 4.0
context = True
noise = 0.4
seed = 0

[train]
epochs = 150
batch_size = 128
lr = 0.001
weight_decay = 0.01
plateau_patience = 10
lr_factor = 0.5
min_lr = 1e-06
strategy = time_sequential
seed = 0
clip_norm = 0.0

[loss]
lam = 0.5
beta = 0.25
gamma = 2.0

"""


def test_default_run_config_ini_text_is_pinned(tmp_path):
    RunConfig.load(None, {}).write_resolved(tmp_path)
    assert (tmp_path / "run_config.ini").read_text() == DEFAULT_RUN_CONFIG_INI


def test_run_config_ini_reloads_with_its_seeds_and_old_spellings(tmp_path):
    run = RunConfig.load(None, {"train": {"seed": "4"}, "synthetic": {"seed": "7"}})
    run.write_resolved(tmp_path / "new")
    old = {s: dict(v) for s, v in run.sections.items()}
    old["train"].update(lr="1e-3", weight_decay="1e-2", min_lr="1e-6", clip_norm="0")
    old["synthetic"]["context"] = "true"
    RunConfig(old).write_resolved(tmp_path / "old")
    assert RunConfig.load(tmp_path / "new/run_config.ini", {}).sections == run.sections
    for path in (tmp_path / "new/run_config.ini", tmp_path / "old/run_config.ini"):
        loaded = RunConfig.load(path, {})
        assert loaded.train == run.train
        assert loaded.train.seed == 4
        synth = loaded.build(SynthConfig, "synthetic", window=24)
        assert synth == run.build(SynthConfig, "synthetic", window=24)
        assert synth.seed == 7


def test_set_seed_beats_the_config_file_seed(tmp_path):
    path = tmp_path / "seeds.ini"
    path.write_text("[train]\nseed = 1\n\n[synthetic]\nseed = 1\n")
    assert RunConfig.load(path, {}).train.seed == 1
    assert RunConfig.load(path, {"train": {"seed": "2"}}).train.seed == 2
    out = tmp_path / "d"
    assert main(["datagen", "--config", str(path), "--out", str(out), "--set", "synthetic.seed=2",
                 "--set", "synthetic.session_len=800", "--set", "data.window=16"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2
    assert RunConfig.load(out / "run_config.ini", {}).sections["synthetic"]["seed"] == "2"


@pytest.mark.parametrize("command", ["datagen", "train", "eval", "gradcheck", "ablate"])
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--config", "missing.ini"], "config file not found: missing.ini"),
        (["--set", "garbage"], "--set expects section.key=value, got 'garbage'"),
    ],
    ids=["missing-config", "set-garbage"],
)
def test_every_command_checks_config_and_set_exit_1(tmp_path, monkeypatch, capsys, command,
                                                    extra, message):
    # a missing data directory would exit 2 and gradcheck would pass, so exit 1
    # shows the command resolves its config first
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    args = {
        "datagen": ["--out", str(out)],
        "train": ["--data", "/nonexistent", "--out", str(out)],
        "eval": ["--checkpoint", str(tmp_path / "run/checkpoint.bin"), "--data", "/nonexistent",
                 "--out", str(out)],
        "gradcheck": [],
        "ablate": ["--data", "/nonexistent", "--out", str(out)],
    }[command]
    assert main([command, *args, *extra]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, extra, message",
    [
        ("[modle]\nd_model = 8\n", [], "unknown config section [modle] in"),
        ("[model]\nwidth = 8\n", [], "unknown key 'width' in section [model] of"),
        # file keys are case-sensitive, as --set keys are
        ("[model]\nD_MODEL = 16\n", [], "unknown key 'D_MODEL' in section [model] of"),
        ("", ["--set", "model.D_MODEL=16"],
         "unknown key 'D_MODEL' in section [model] of the command line"),
        ("", ["--set", "synth.sessions=2"], "unknown config section [synth] in the command line"),
        ("", ["--set", "synthetic.width=2"], "unknown key 'width' in section [synthetic]"),
        ("", ["--set", "synthetic.sessions=many"],
         "[synthetic] sessions must be an integer, got 'many'"),
        ("", ["--set", "synthetic.noise=loud"],
         "[synthetic] noise must be a finite number, got 'loud'"),
        ("", ["--set", "synthetic.context=maybe"],
         "[synthetic] context must be a boolean, got 'maybe'"),
        ("", ["--set", "sessions=2"], "--set expects section.key=value, got 'sessions=2'"),
    ],
    ids=["ini-section", "ini-key", "ini-key-case", "set-key-case", "set-section", "set-key",
         "int", "float", "bool", "set-syntax"],
)
def test_config_errors_exit_1_naming_section_and_key(tmp_path, capsys, config, extra, message):
    path = tmp_path / "c.ini"
    path.write_text(config)
    code = main(["datagen", "--config", str(path), "--out", str(tmp_path / "d"), *extra])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("train", "model.experts=0", "experts must be >= 1, got 0"),
        ("train", "model.d_model=7", "d_model must be even and >= 2, got 7"),
        ("train", "model.dropout=1", "dropout must be in [0, 1), got 1.0"),
        ("train", "model.conv_blocks=0", "conv_blocks must be >= 1, got 0"),
        ("train", "train.epochs=0", "epochs must be >= 1, got 0"),
        ("train", "train.epochs=abc", "[train] epochs must be an integer, got 'abc'"),
        ("train", "train.batch_size=0", "batch_size must be >= 1, got 0"),
        ("train", "train.lr=0", "lr must be > 0, got 0.0"),
        ("train", "train.lr_factor=1", "lr_factor must be in (0, 1), got 1.0"),
        ("train", "train.plateau_patience=0", "plateau_patience must be >= 1, got 0"),
        ("train", "train.weight_decay=-1", "weight_decay/min_lr/clip_norm out of range"),
        ("train", "train.min_lr=0", "weight_decay/min_lr/clip_norm out of range"),
        ("train", "train.clip_norm=-1", "weight_decay/min_lr/clip_norm out of range"),
        ("train", "train.strategy=time-sequential",
         "strategy must be one of ('time_sequential', 'shuffled'), got 'time-sequential'"),
        ("ablate", "train.epochs=abc", "[train] epochs must be an integer, got 'abc'"),
        ("datagen", "synthetic.channels=0", "channels must be >= 1, got 0"),
        ("datagen", "synthetic.sessions=0", "sessions must be >= 1, got 0"),
        # [data] and [model] are built before [synthetic], so its window
        # check needs a step and a kernel that fit a 1-sample window
        pytest.param("datagen", "data.window=1 data.step=1 model.kernel=1",
                     "window must be >= 2, got 1",
                     id="datagen-data.window=1-window must be >= 2, got 1"),
        ("datagen", "data.window=1",
         "step must satisfy 1 <= step <= window, got step=12, window=1"),
        ("datagen", "data.window=4 data.step=4", "window_len (4) must be >= kernel (5)"),
        ("datagen", "synthetic.session_len=10", "session_len (10) too short for window 24"),
        ("datagen", "synthetic.noise=-1", "noise must be >= 0, got -1.0"),
        # non-finite floats; the first was a ValueError traceback
        ("datagen", "synthetic.mean_dwell_windows=nan",
         "[synthetic] mean_dwell_windows must be a finite number, got 'nan'"),
        ("datagen", "synthetic.mean_dwell_windows=inf",
         "[synthetic] mean_dwell_windows must be a finite number, got 'inf'"),
        # finite, but a mean dwell longer than a session
        ("datagen", "synthetic.mean_dwell_windows=1e308",
         "mean dwell of 1e+308 windows of 24 samples exceeds session_len 6656"),
        # these two exited 0 with NaN sessions and an ignored value
        ("datagen", "synthetic.noise=nan", "[synthetic] noise must be a finite number, got 'nan'"),
        ("train", "train.clip_norm=nan", "[train] clip_norm must be a finite number, got 'nan'"),
        ("train", "train.min_lr=nan", "[train] min_lr must be a finite number, got 'nan'"),
        # these three were NumericError, exit 3
        ("train", "train.lr=nan", "[train] lr must be a finite number, got 'nan'"),
        ("train", "train.weight_decay=inf",
         "[train] weight_decay must be a finite number, got 'inf'"),
        ("train", "loss.beta=nan", "[loss] beta must be a finite number, got 'nan'"),
        ("train", "model.dropout=-inf", "[model] dropout must be a finite number, got '-inf'"),
        ("train", "train.lr=1e400", "[train] lr must be a finite number, got '1e400'"),
        ("ablate", "loss.gamma=NaN", "[loss] gamma must be a finite number, got 'NaN'"),
    ],
)
def test_bad_config_value_exit_1_with_its_message(
    tmp_path, tiny_config, request, capsys, command, setting, message
):
    out = tmp_path / "out"
    args = [command, "--out", str(out), *(a for item in setting.split() for a in ("--set", item))]
    if command != "datagen":
        args += ["--config", tiny_config, "--data", request.getfixturevalue("dataset")]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# what a config file line or a --set value may hold: a key's default, a
# non-finite float spelling, another spelling, or any text
_CONFIG_KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys]
_NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e400"]
_SPELLINGS = ["", "0", "-1", "1", "3", "0.5", "1e-3", "true", "off", "x", "1_000", "0x10",
              "9" * 40, "shuffled", "intra,moe", "pe,,gate", "bogus"]
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)


def _value(section: str, key: str):
    default = st.just(DEFAULTS.get(section, {}).get(key, ""))
    return st.one_of(default, default, st.sampled_from(_NON_FINITE), st.sampled_from(_SPELLINGS),
                     _TEXT)


def _entry():
    """A (section, key) pair, mostly a known one."""
    known = st.sampled_from(_CONFIG_KEYS)
    return st.one_of(known, known, known, st.tuples(_TEXT, _TEXT))


@st.composite
def _ini_text(draw) -> str:
    by_section: dict[str, list[str]] = {}
    for _ in range(draw(st.integers(0, 3))):
        section, key = draw(_entry())
        sep = draw(st.sampled_from(["=", ":", " = "]))
        by_section.setdefault(section, []).append(f"{key}{sep}{draw(_value(section, key))}")
    return "\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in by_section.items())


@st.composite
def _set_items(draw) -> list[str]:
    items = []
    for _ in range(draw(st.integers(0, 3))):
        section, key = draw(_entry())
        items.append(f"{section}.{key}={draw(_value(section, key))}")
    no_raw_item = st.just([])
    return items + draw(st.one_of(no_raw_item, no_raw_item, no_raw_item,
                                  st.lists(_TEXT, min_size=1, max_size=1)))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_ini_text(), _ini_text(), _ini_text(), _TEXT), set_items=_set_items())
def test_config_file_and_set_fuzz_load_or_config_error(tmp_path_factory, text, set_items):
    # any config file text and --set items: every config a command builds
    # either loads, with finite floats, or raises a FrameAttnError
    path = tmp_path_factory.getbasetemp() / "fuzz.ini"
    path.write_text(text, encoding="utf-8")
    try:
        run = RunConfig.load(path, cli._overrides_from_args(argparse.Namespace(set=set_items)))
        configs = [run.train, run.train.loss, run.model, run.data,
                   run.build(SynthConfig, "synthetic", window=run.data.window)]
    except errors.FrameAttnError:
        return
    for cfg in configs:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, float):
                assert math.isfinite(value), (type(cfg).__name__, f.name)


def test_one_class_data_exit_2_before_any_run_file(tmp_path, tiny_config, capsys):
    data_dir = tmp_path / "one_class"
    data_dir.mkdir()
    for i in range(3):
        rows = "".join(f"{t},{0.1 * t},{i},{-t},0\n" for t in range(40))
        (data_dir / f"session_{i}.csv").write_text("t,ch1,ch2,ch3,label\n" + rows)
    for command, extra in (("train", []), ("ablate", ["--cells", "full", "--seeds", "0"])):
        out = tmp_path / command
        code = main([command, "--config", tiny_config, "--data", str(data_dir),
                     "--out", str(out), *extra])
        assert code == 2
        assert "the labels span [0, 0]: training needs 2 or more classes" in (
            capsys.readouterr().err
        )
        assert not list(out.rglob("run_config.ini"))


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--data", "d", "--out", "o", "--epochs", "5"],
         "unrecognized arguments: --epochs 5"),
        (["datagen", "--out", "o", "--context", "false"], "unrecognized arguments: --context"),
        (["train", "--out", "o"], "the following arguments are required: --data"),
        (["eval", "--checkpoint", "c", "--data", "d", "--split", "bogus"],
         "argument --split: invalid choice: 'bogus'"),
        # the seeds are train.seed and synthetic.seed
        (["gradcheck", "--seed", "abc"], "unrecognized arguments: --seed abc"),
        (["datagen", "--out", "o", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["train", "--data", "d", "--out", "o", "--seed", "1"], "unrecognized arguments: --seed 1"),
        (["eval", "--checkpoint", "c", "--data", "d", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        ([], "the following arguments are required: command"),
        # a prefix of a live flag is not that flag
        (["train", "--data", "d", "--out", "o", "--dump"], "unrecognized arguments: --dump"),
    ],
    ids=["removed-alias", "removed-datagen-alias", "missing-data", "split-choice", "seed-int",
         "datagen-seed", "train-seed", "eval-seed", "no-command", "flag-prefix"],
)
def test_usage_errors_exit_1(tmp_path, capsys, args, message):
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: frameattn")
    assert message in err


@pytest.mark.parametrize("command", ["datagen", "train", "eval", "gradcheck", "ablate"])
def test_help_exits_0_and_lists_no_config_key_flag(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    flags = {word.strip("[],").lstrip("-").replace("-", "_")
             for word in out.split() if word.startswith(("--", "[--"))}
    keys = {key for values in DEFAULTS.values() for key in values}
    assert "set" in flags
    assert not flags & keys


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["train"], 1)])
def test_python_dash_m_frameattn_runs_the_command(args, code):
    # the package runs as ``python -m frameattn``, passing on main's exit code
    src = str(Path(frameattn.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "frameattn", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == code, done.stderr
    assert "usage: frameattn" in done.stdout + done.stderr


def test_each_error_class_exits_with_its_code(monkeypatch, capsys):
    codes = {
        errors.FrameAttnError: 1,
        errors.ConfigError: 1,
        errors.ShapeError: 1,
        errors.CheckpointError: 1,
        errors.DataError: 2,
        errors.ParseError: 2,
        errors.NumericError: 3,
    }
    classes, todo = set(), [errors.FrameAttnError]
    while todo:
        cls = todo.pop()
        classes.add(cls)
        todo += cls.__subclasses__()
    assert classes == set(codes)
    for cls, code in codes.items():
        def fail(*args, cls=cls, **kw):
            raise cls(f"injected {cls.__name__}")

        monkeypatch.setattr(cli, "parameter_gradcheck_report", fail)
        assert main(["gradcheck"]) == code
        assert f"error: injected {cls.__name__}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, setting",
    [("datagen", "synthetic.session_len=1000000000000000"),  # 21.3 PiB of samples
     ("train", "model.experts=1000000000000")],  # 931 TiB of gate weights at d_model 128
)
def test_out_of_memory_exit_1(tmp_path, dataset, capsys, command, setting):
    # each request exceeds the 128 TiB user address space, so it fails at
    # once even where memory is overcommitted
    data = ["--data", dataset] if command == "train" else []
    code = main([command, *data, "--out", str(tmp_path / "out"), "--set", setting])
    assert code == 1
    assert "error: out of memory: Unable to allocate" in capsys.readouterr().err
    # the model is built before any run file is written
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_3(tmp_path, tiny_config, dataset, capsys):
    code = main(["train", "--config", tiny_config, "--data", dataset,
                 "--out", str(tmp_path / "run"), "--set", "train.lr=1e18",
                 "--set", "train.weight_decay=1", "--set", "train.epochs=20"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_train_sessions_shorter_than_window_exit_2(tmp_path, tiny_config, capsys):
    data_dir = tmp_path / "short"
    data_dir.mkdir()
    for i in range(3):
        rows = "".join(f"{t},{0.1 * t},{i},{-t},{t % 2}\n" for t in range(10))
        (data_dir / f"session_{i}.csv").write_text("t,ch1,ch2,ch3,label\n" + rows)
    code = main(["train", "--config", tiny_config, "--data", str(data_dir),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "the train split has no frames" in capsys.readouterr().err


def write_run_dir(run_dir, normalizer: str, checkpoint: bytes = b"", config=None) -> str:
    """A run directory holding the resolved ``config``."""
    RunConfig.load(config, {}).write_resolved(run_dir)
    (run_dir / "normalizer.json").write_text(normalizer)
    (run_dir / "checkpoint.bin").write_bytes(checkpoint)
    return str(run_dir / "checkpoint.bin")


@pytest.mark.parametrize(
    "normalizer",
    [
        "{not json",
        '{"mean": [0, 0, 0]}',
        '{"mean": [[0, 0], [0]], "std": [1, 1, 1]}',
        '{"mean": [0, 0, 0], "std": [1, 0, 1]}',
        '{"mean": [0, 0, 0], "std": [1, -1, 1]}',
        '{"mean": [0, NaN, 0], "std": [1, 1, 1]}',
        '{"mean": [0, 0, 0], "std": [1, 1]}',
    ],
    ids=["bad-json", "missing-std", "ragged-mean", "zero-std", "negative-std", "nan-mean",
         "std-shorter-than-mean"],
)
def test_eval_malformed_normalizer_exit_2(tmp_path, tiny_config, dataset, capsys, normalizer):
    checkpoint = write_run_dir(tmp_path / "run", normalizer, config=tiny_config)
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 2
    assert "normalizer.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "missing, code, message",
    [("checkpoint.bin", 1, "checkpoint not found"),
     ("normalizer.json", 2, "normalizer stats not found")],
)
def test_eval_run_directory_without_a_run_file(tmp_path, tiny_config, dataset, capsys, missing,
                                               code, message):
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}',
                               config=tiny_config)
    (tmp_path / "run" / missing).unlink()
    assert main(["eval", "--checkpoint", checkpoint, "--data", dataset]) == code
    assert f"{message}: {tmp_path / 'run' / missing}" in capsys.readouterr().err


def test_train_session_with_fewer_channels_exit_2(tmp_path, tiny_config, dataset, capsys):
    session = sorted((tmp_path / "data").glob("session_*.csv"))[-1]
    rows = [line.split(",") for line in session.read_text().splitlines()]
    session.write_text("".join(",".join(r[:1] + r[2:]) + "\n" for r in rows))
    code = main(["train", "--config", tiny_config, "--data", dataset,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{session.name}: 2 channels" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["inf", "1e300", "2.7", "-0.5"])
def test_train_session_with_bad_label_exit_2(tmp_path, tiny_config, dataset, capsys, label):
    session = sorted((tmp_path / "data").glob("session_*.csv"))[0]
    lines = session.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + label
    session.write_text("\n".join(lines) + "\n")
    code = main(["train", "--config", tiny_config, "--data", dataset,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{session.name}:6: label must be an integer" in capsys.readouterr().err


def test_train_huge_label_exit_2(tmp_path, tiny_config, dataset, capsys):
    session = sorted((tmp_path / "data").glob("session_*.csv"))[0]
    lines = session.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",1e15"
    session.write_text("\n".join(lines) + "\n")
    code = main(["train", "--config", tiny_config, "--data", dataset,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"session '{session.stem}': label 1000000000000000" in err
    assert ">= class bound 10000" in err


def test_train_non_utf8_session_exit_2(tmp_path, tiny_config, dataset, capsys):
    session = sorted((tmp_path / "data").glob("session_*.csv"))[0]
    session.write_bytes(session.read_bytes().replace(b"\n", b"\xff\n", 1))
    code = main(["train", "--config", tiny_config, "--data", dataset,
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{session.name}: not UTF-8 text" in capsys.readouterr().err


def test_eval_normalizer_channel_count_mismatch_exit_2(tmp_path, tiny_config, dataset, capsys):
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0], "std": [1, 1]}',
                               config=tiny_config)
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 2
    assert "2 channels, the data has 3" in capsys.readouterr().err


def test_eval_v1_checkpoint_exit_1(tmp_path, tiny_config, dataset, capsys):
    checkpoint = write_run_dir(
        tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}', b"FRAMEATTN v1\n", tiny_config
    )
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    err = capsys.readouterr().err
    assert "FRAMEATTN v1" in err and "FRAMEATTN v3" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[extra]\n", "unknown config section [extra] in"),
        ("[model]\nwidth = 8\n", "unknown key 'width' in section [model] of"),
        ("[model\nd_model = 8\n", "cannot parse config file"),
    ],
    ids=["unknown-section", "unknown-key", "ini-syntax"],
)
def test_eval_malformed_run_config_exit_1(tmp_path, dataset, capsys, text, message):
    # written as text: a RunConfig cannot hold these sections
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}')
    (tmp_path / "run" / "run_config.ini").write_text(text)
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "run_config.ini" in err


def test_eval_without_run_config_exit_1_unless_config_given(tmp_path, tiny_config, dataset,
                                                            capsys):
    # defaults would evaluate the checkpoint under a config it was not trained with
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)])
    (run_dir / "run_config.ini").unlink()
    capsys.readouterr()
    args = ["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", dataset]
    assert main(args) == 1
    assert f"config file not found: {run_dir / 'run_config.ini'}" in capsys.readouterr().err
    assert main([*args, "--config", tiny_config]) == 0


def test_eval_run_config_with_strategy_alias_exit_1(tmp_path, dataset, capsys):
    # each strategy has one spelling; the config is checked before the run directory is read
    checkpoint = write_run_dir(tmp_path / "run", "{}")
    (tmp_path / "run" / "run_config.ini").write_text("[train]\nstrategy = time-sequential\n")
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    assert "got 'time-sequential'" in capsys.readouterr().err


def test_eval_non_finite_checkpoint_value_exit_1(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)])
    capsys.readouterr()
    arrays = checkpoint_load(run_dir / "checkpoint.bin")
    arrays["cls.w"][0, 0] = np.nan
    checkpoint_save(arrays, run_dir / "checkpoint.bin")
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", dataset])
    assert code == 1
    assert "non-finite value in parameter 'cls.w'" in capsys.readouterr().err


def test_eval_set_override_applies_to_run_config(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"), "--data", dataset,
                 "--set", "model.d_model=16"])
    assert code == 1
    assert "shape mismatch" in capsys.readouterr().err


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--set", "train.seed=0"]) == 0
    out = capsys.readouterr().out
    for block in ("backbone", "intra", "inter", "blend", "cat", "mh",
                  "gate", "moe", "cls", "loss"):
        assert block in out
    assert "composed" not in out
    assert "passed" in out
    assert main(["gradcheck", "--set", "train.seed=x"]) == 1
    assert "[train] seed must be an integer, got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["model.heads=3", "train.batch_size=0", "loss.lam=-1"])
def test_gradcheck_checks_its_config_as_train_does(tmp_path, capsys, setting):
    # gradcheck builds the configuration as train does, so a bad value is
    # the same error, with train's message
    assert main(["train", "--data", "/nonexistent", "--out", str(tmp_path / "o"),
                 "--set", setting]) == 1
    train_err = capsys.readouterr().err
    assert main(["gradcheck", "--set", setting]) == 1
    assert capsys.readouterr().err == train_err


def test_gradcheck_checks_the_configured_model_and_loss(dataset, monkeypatch):
    checked = []

    def report(cfg, loss_cfg, seed):
        checked.append((cfg, loss_cfg))
        return []

    monkeypatch.setattr(cli, "parameter_gradcheck_report", report)
    assert main(["gradcheck"]) == 0
    assert main(["gradcheck", "--set", "model.d_model=32", "--set", "model.heads=4",
                 "--set", "loss.lam=0"]) == 0
    assert main(["gradcheck", "--config", str(Path(dataset) / "run_config.ini")]) == 0
    assert checked == [
        (ModelConfig(window_len=24, channels=3, classes=4), LossConfig()),
        (ModelConfig(window_len=24, channels=3, classes=4, d_model=32, heads=4),
         LossConfig(lam=0.0)),
        # TINY_CONFIG's [model] and [data] window, through datagen's run_config.ini
        (ModelConfig(window_len=16, channels=3, classes=4, d_model=8, heads=2, experts=2,
                     dropout=0.1, conv_blocks=1, kernel=3), LossConfig()),
    ]


def test_gradcheck_fault_injection_names_offending_block(capsys, monkeypatch, scale_backward):
    # a 5 % error in one op's backward fails the row of the stage that
    # first uses it, on the default model
    for op, block in (("conv1d_relu", "backbone"), ("attention_pool", "intra"),
                      ("attention", "inter"), ("sigmoid_mix", "blend"),
                      ("mixture_of_experts", "moe")):
        scale_backward(op, 1.05)
        code = main(["gradcheck"])
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert block in out.split("FAILED for:")[1].strip().split(", ")


def test_ablate_grid_and_csv(tmp_path, tiny_config, dataset):
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
        "--cells", "baseline,full", "--strategies", "time_sequential,shuffled",
        "--batch-sizes", "16", "--seeds", "0,1", "--set", "train.epochs=1",
    ])
    assert code == 0
    with open(out / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 cells x 2 strategies
    for row in rows:
        assert row["status"] == "ok"
        assert row["f1_mean"]
        assert len(row["f1_per_seed"].split(";")) == 2


def test_ablate_rows_match_cli_csv_and_cells_are_run_directories(
    tmp_path, tiny_config, dataset, capsys
):
    cells = list(COMPONENT_CELLS)
    out = tmp_path / "abl"
    assert main([
        "ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
        "--cells", ",".join(cells), "--strategies", "time_sequential",
        "--batch-sizes", "16", "--seeds", "0,1", "--set", "train.epochs=1",
    ]) == 0
    with open(out / "ablation.csv") as fh:
        csv_rows = list(csv.DictReader(fh))

    run = RunConfig.load(tiny_config, {"train": {"epochs": "1"}})
    rows = ablate(run, dataset, cells, ["time_sequential"], [16], [0, 1], tmp_path / "direct")
    assert [{k: str(v) for k, v in row.items()} for row in rows] == csv_rows
    assert [r["strategy"] for r in csv_rows] == ["time_sequential"] * 6
    assert all(r["status"] == "ok" for r in csv_rows)
    capsys.readouterr()

    for row in csv_rows:
        for seed, f1 in zip((0, 1), row["f1_per_seed"].split(";")):
            cell_dir = out / f"{row['cell']}_{row['strategy']}_b16_s{seed}"
            resolved = RunConfig.load(cell_dir / "run_config.ini", {}).sections
            assert resolved["train"]["seed"] == str(seed)
            assert resolved["train"]["batch_size"] == "16"
            assert resolved["model"]["disable"] == row["disable"]
            assert main(["eval", "--checkpoint", str(cell_dir / "checkpoint.bin"),
                         "--data", dataset]) == 0
            reported = capsys.readouterr().out
            assert reported.split("mean F1 ", 1)[1].split(",")[0] == f1


def test_ablate_context_by_strategy_grid_trains_every_point(tmp_path, tiny_config, dataset):
    # the paper's 2x2 grid: context vs isolated model x time-sequential vs shuffled batches
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
        "--cells", "full,isolated", "--strategies", "time_sequential,shuffled",
        "--batch-sizes", "16", "--seeds", "0", "--set", "train.epochs=1",
    ])
    assert code == 0
    with open(out / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    points = [(r["cell"], r["strategy"]) for r in rows]
    assert points == [("full", "time_sequential"), ("full", "shuffled"),
                      ("isolated", "time_sequential"), ("isolated", "shuffled")]
    for cell, strategy in points:
        resolved = RunConfig.load(out / f"{cell}_{strategy}_b16_s0/run_config.ini", {}).sections
        assert resolved["train"]["strategy"] == strategy


def test_ablate_absent_grid_flags_take_the_train_config(tmp_path, tiny_config, dataset):
    out = tmp_path / "abl"
    args = ["ablate", "--config", tiny_config, "--data", dataset, "--cells", "full",
            "--set", "train.epochs=1", "--set", "train.strategy=shuffled",
            "--set", "train.batch_size=16", "--set", "train.seed=3"]
    assert main([*args, "--out", str(out)]) == 0
    run_dir = out / "full_shuffled_b16_s3"
    resolved = RunConfig.load(run_dir / "run_config.ini", {}).sections["train"]
    assert (resolved["strategy"], resolved["batch_size"], resolved["seed"]) == ("shuffled", "16", "3")
    with open(out / "ablation.csv") as fh:
        assert [r["seeds"] for r in csv.DictReader(fh)] == ["3"]

    # a run's config repeats its grid point
    again = tmp_path / "again"
    assert main(["ablate", "--config", str(run_dir / "run_config.ini"), "--data", dataset,
                 "--cells", "full", "--out", str(again)]) == 0
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert (again / run_dir.name / name).read_bytes() == (run_dir / name).read_bytes()

    # a given flag wins
    assert main([*args, "--out", str(out), "--strategies", "time_sequential",
                 "--batch-sizes", "8", "--seeds", "4"]) == 0
    assert (out / "full_time_sequential_b8_s4" / "metrics.jsonl").is_file()


def test_ablate_failed_point_has_no_mean_and_names_its_seed(tmp_path, tiny_config, dataset,
                                                            monkeypatch, capsys):
    real_train = cli.train

    def train(model_cfg, train_frames, val_frames, test_frames, cfg, out_dir, **kw):
        if Path(out_dir).name == "full_time_sequential_b16_s1":
            raise errors.NumericError("non-finite training loss at epoch 0, batch 3, lr 0.001")
        return real_train(model_cfg, train_frames, val_frames, test_frames, cfg, out_dir, **kw)

    monkeypatch.setattr(cli, "train", train)
    out = tmp_path / "abl"
    assert main(["ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
                 "--cells", "both,full", "--batch-sizes", "16", "--seeds", "0,1,2",
                 "--set", "train.epochs=1"]) == 0
    assert "cell full/time_sequential/b16 seed 1 failed" in capsys.readouterr().err
    with open(out / "ablation.csv") as fh:
        both, full = csv.DictReader(fh)

    def score(cell, seed):
        records = (out / f"{cell}_time_sequential_b16_s{seed}" / "metrics.jsonl").read_text()
        return json.loads(records.splitlines()[-1])["mean_f1"]

    # a finished point: every seed's score, their mean and spread
    scores = [score("both", seed) for seed in (0, 1, 2)]
    assert both["status"] == "ok" and both["message"] == ""
    assert both["f1_per_seed"] == ";".join(f"{s:.6f}" for s in scores)
    assert both["f1_mean"] == f"{np.mean(scores):.6f}"
    assert both["f1_std"] == f"{np.std(scores):.6f}"
    # a failed point: the seeds that finished, no mean or spread, the seed that failed
    assert full["status"] == "failed"
    assert (full["f1_mean"], full["f1_std"]) == ("", "")
    assert full["f1_per_seed"] == f"{score('full', 0):.6f}"
    assert full["message"] == "seed 1: non-finite training loss at epoch 0, batch 3, lr 0.001"
    assert not (out / "full_time_sequential_b16_s2").exists()


def test_component_cells_override_only_model_and_loss():
    # the grid owns [train]'s strategy and batch size, and one data load serves every cell
    for cell, overrides in COMPONENT_CELLS.items():
        assert set(overrides) <= {"model", "loss"}, cell


def test_ablate_unknown_cell_exit_1(tmp_path, tiny_config, dataset):
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset,
        "--out", str(tmp_path / "abl"), "--cells", "everything",
    ])
    assert code == 1


@pytest.mark.parametrize(
    "setting, message",
    [("train.lr=-1", "lr must be > 0, got -1.0"),
     ("model.heads=3", "d_model (8) must be divisible by heads (3)"),
     ("train.batch_size=x", "[train] batch_size must be an integer, got 'x'")],
)
def test_ablate_config_error_exit_1_without_csv(tmp_path, tiny_config, dataset, capsys,
                                                setting, message):
    # only divergence depends on the seed; any other error is the whole grid's
    out = tmp_path / "abl"
    code = main(["ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
                 "--cells", "full", "--seeds", "0,1", "--set", setting])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (out / "ablation.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "0,x", "--seeds must be comma-separated integers, got '0,x'"),
        ("--batch-sizes", "16,1.5", "--batch-sizes must be comma-separated integers"),
        ("--seeds", "0,1,00", "--seeds repeats [0] in '0,1,00'"),
        ("--batch-sizes", "16,8,16", "--batch-sizes repeats [16] in '16,8,16'"),
        ("--batch-sizes", "0", "batch_size must be >= 1, got 0"),
        ("--batch-sizes", "-8", "batch_size must be >= 1, got -8"),
        ("--cells", "full,everything", "unknown ablation cell 'everything'"),
        ("--strategies", "time-sequential", "got 'time-sequential'"),
        ("--cells", "full,full", "--cells repeats ['full'] in 'full,full'"),
        ("--cells", "full, inter,full", "--cells repeats ['full'] in 'full, inter,full'"),
        ("--strategies", "time_sequential,time_sequential",
         "--strategies repeats ['time_sequential'] in 'time_sequential,time_sequential'"),
        ("--seeds", " , ", "--seeds must name at least one grid value"),
        ("--cells", "", "--cells must name at least one grid value"),
    ],
)
def test_ablate_bad_grid_exit_1_before_reading_data(tmp_path, capsys, flag, value, message):
    # a missing data directory would exit 2, so exit 1 shows the grid is checked first
    code = main(["ablate", "--data", "/nonexistent", "--out", str(tmp_path / "abl"), flag, value])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()
