import csv
import json

import numpy as np
import pytest

from frameattn import cli, errors
from frameattn.cli import (
    COMPONENT_CELLS,
    DEFAULTS,
    RunConfig,
    ablate,
    build_parser,
    main,
)
from frameattn.data import SynthConfig, WindowSpec
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
    assert main(["datagen", "--config", tiny_config, "--out", str(data_dir), "--seed", "5"]) == 0
    return str(data_dir)


def test_datagen_default_session_count(tmp_path):
    out = tmp_path / "d"
    code = main(["datagen", "--out", str(out), "--set", "synthetic.session_len=800",
                 "--set", "data.window=16"])
    assert code == 0
    assert len(list(out.glob("session_*.csv"))) == 6
    assert (out / "manifest.json").is_file()
    assert (out / "run_config.json").is_file()


def test_datagen_same_seed_byte_identical(tmp_path, tiny_config):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["datagen", "--config", tiny_config, "--out", str(out), "--seed", "3"]) == 0
    for f in sorted(a.glob("*.csv")):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_datagen_single_class_is_config_error(tmp_path):
    code = main(["datagen", "--out", str(tmp_path / "x"), "--set", "synthetic.classes=1"])
    assert code == 1


def test_train_and_eval_round_trip(tmp_path, tiny_config, dataset, capsys):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--seed", "5",
    ])
    assert code == 0
    reported = capsys.readouterr().out
    assert "test mean F1" in reported
    reported_f1 = float(reported.rsplit("test mean F1", 1)[1].strip())

    assert (run_dir / "checkpoint.bin").is_file()
    assert (run_dir / "metrics.jsonl").is_file()
    assert (run_dir / "run_config.json").is_file()
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
    "command, setting, message",
    [
        ("train", "train.lr=-1", "lr must be > 0, got -1.0"),
        ("train", "train.strategy=bogus", "strategy must be one of"),
        ("train", "loss.lam=-1", "loss lam must be in [0, 1], got -1.0"),
        ("ablate", "train.lr=-1", "lr must be > 0, got -1.0"),
    ],
)
def test_train_config_error_exit_1_before_reading_data(tmp_path, capsys, command, setting,
                                                       message):
    # a missing data directory would exit 2, so exit 1 shows the config is checked first
    out = tmp_path / "out"
    code = main([command, "--data", "/nonexistent", "--out", str(out), "--set", setting])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_disable_flags_build_baseline(tmp_path, tiny_config, dataset):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--set", "model.disable=intra,inter,pe,moe,gate", "--set", "loss.lam=0",
        "--set", "model.heads=2",
    ])
    assert code == 0
    resolved = json.loads((run_dir / "run_config.json").read_text())
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


def test_train_determinism_byte_identical_metrics(tmp_path, tiny_config, dataset):
    for name in ("a", "b"):
        assert main([
            "train", "--config", tiny_config, "--data", dataset,
            "--out", str(tmp_path / name), "--seed", "11",
        ]) == 0
    assert (tmp_path / "a/metrics.jsonl").read_bytes() == (tmp_path / "b/metrics.jsonl").read_bytes()
    assert (tmp_path / "a/checkpoint.bin").read_bytes() == (tmp_path / "b/checkpoint.bin").read_bytes()


def test_eval_class_count_mismatch_exit_1(tmp_path, tiny_config, dataset):
    run_dir = tmp_path / "run"
    main(["train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir)])
    other_data = tmp_path / "data6"
    assert main(["datagen", "--config", tiny_config, "--out", str(other_data),
                 "--set", "synthetic.classes=6", "--seed", "5"]) == 0
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--data", str(other_data)])
    assert code == 1


def test_ablate_batch_size_flag_sets_the_grid_batch_sizes():
    # ablate has no --batch-size of its own: the grid sets every cell's batch size
    args = build_parser().parse_args(["ablate", "--data", "d", "--out", "o", "--batch-size", "8"])
    assert args.batch_sizes == "8"
    assert "batch_size" not in vars(args)


def test_resolved_defaults_build_every_dataclass_as_its_defaults():
    run = RunConfig.load(None, {}, seed=0)
    assert run.build(WindowSpec, "data") == WindowSpec(window=24, step=12)
    assert run.build(SynthConfig, "synthetic", window=24, seed=0) == SynthConfig(window=24)
    assert run.train_config() == TrainConfig()
    model = run.build(ModelConfig, "model", window_len=24, channels=3, classes=4,
                      disabled=frozenset())
    assert model == ModelConfig(window_len=24, channels=3, classes=4)


def test_run_config_json_reloads_with_its_seed_and_old_spellings(tmp_path):
    run = RunConfig.load(None, {}, seed=4)
    run.write_resolved(tmp_path)
    old = json.loads((tmp_path / "run_config.json").read_text())
    old["train"].update(lr="1e-3", weight_decay="1e-2", min_lr="1e-6", clip_norm="0")
    old["synthetic"]["context"] = "true"
    (tmp_path / "old.json").write_text(json.dumps(old))
    for path in (tmp_path / "run_config.json", tmp_path / "old.json"):
        loaded = RunConfig.load(path, {}, seed=0)
        assert loaded.seed == 4
        assert loaded.train_config() == run.train_config()
        assert (loaded.build(SynthConfig, "synthetic", window=24, seed=4)
                == run.build(SynthConfig, "synthetic", window=24, seed=4))


@pytest.mark.parametrize(
    "config, extra, message",
    [
        ("[modle]\nd_model = 8\n", [], "unknown config section [modle] in"),
        ("[model]\nwidth = 8\n", [], "unknown key 'width' in section [model] of"),
        ("", ["--set", "synth.sessions=2"], "unknown config section [synth] in the command line"),
        ("", ["--set", "synthetic.width=2"], "unknown key 'width' in section [synthetic]"),
        ("", ["--set", "synthetic.sessions=many"],
         "[synthetic] sessions must be an integer, got 'many'"),
        ("", ["--set", "synthetic.noise=loud"], "[synthetic] noise must be a number, got 'loud'"),
        ("", ["--set", "synthetic.context=maybe"],
         "[synthetic] context must be a boolean, got 'maybe'"),
        ("", ["--set", "sessions=2"], "--set expects section.key=value, got 'sessions=2'"),
    ],
    ids=["ini-section", "ini-key", "set-section", "set-key", "int", "float", "bool",
         "set-syntax"],
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
        ("datagen", "data.window=1", "window must be >= 2, got 1"),
        ("datagen", "synthetic.session_len=10", "session_len (10) too short for window 24"),
        ("datagen", "synthetic.noise=-1", "noise must be >= 0, got -1.0"),
    ],
)
def test_bad_config_value_exit_1_with_its_message(
    tmp_path, tiny_config, request, capsys, command, setting, message
):
    out = tmp_path / "out"
    args = [command, "--out", str(out), "--set", setting]
    if command != "datagen":
        args += ["--config", tiny_config, "--data", request.getfixturevalue("dataset")]
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_on_one_class_data_exit_1(tmp_path, tiny_config, capsys):
    data_dir = tmp_path / "one_class"
    data_dir.mkdir()
    for i in range(3):
        rows = "".join(f"{t},{0.1 * t},{i},{-t},0\n" for t in range(40))
        (data_dir / f"session_{i}.csv").write_text("t,ch1,ch2,ch3,label\n" + rows)
    code = main(["train", "--config", tiny_config, "--data", str(data_dir),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "classes must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--data", "d", "--out", "o", "--epochs", "5"],
         "unrecognized arguments: --epochs 5"),
        (["datagen", "--out", "o", "--context", "false"], "unrecognized arguments: --context"),
        (["train", "--out", "o"], "the following arguments are required: --data"),
        (["eval", "--checkpoint", "c", "--data", "d", "--split", "bogus"],
         "argument --split: invalid choice: 'bogus'"),
        (["gradcheck", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["removed-alias", "removed-datagen-alias", "missing-data", "split-choice", "seed-int",
         "no-command"],
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


def write_run_dir(run_dir, normalizer: str, checkpoint: bytes = b"") -> str:
    run_dir.mkdir()
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
    ],
    ids=["bad-json", "missing-std", "ragged-mean", "zero-std", "negative-std", "nan-mean"],
)
def test_eval_malformed_normalizer_exit_2(tmp_path, tiny_config, dataset, capsys, normalizer):
    checkpoint = write_run_dir(tmp_path / "run", normalizer)
    code = main(["eval", "--config", tiny_config, "--checkpoint", checkpoint, "--data", dataset])
    assert code == 2
    assert "normalizer.json" in capsys.readouterr().err


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
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0], "std": [1, 1]}')
    code = main(["eval", "--config", tiny_config, "--checkpoint", checkpoint, "--data", dataset])
    assert code == 2
    assert "2 channels, the data has 3" in capsys.readouterr().err


def test_eval_v1_checkpoint_exit_1(tmp_path, tiny_config, dataset, capsys):
    checkpoint = write_run_dir(
        tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}', b"FRAMEATTN v1\n"
    )
    code = main(["eval", "--config", tiny_config, "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    err = capsys.readouterr().err
    assert "FRAMEATTN v1" in err and "FRAMEATTN v2" in err


@pytest.mark.parametrize(
    "run_config",
    [
        "{not json",
        "[1, 2]",
        '{"seed": 0, "model": "d_model = 8"}',
        '{"seed": "zero"}',
        '{"seed": 0, "extra": {}}',
        '{"seed": 0, "model": {"width": "8"}}',
    ],
    ids=["bad-json", "not-object", "section-not-object", "seed-not-integer",
         "unknown-section", "unknown-key"],
)
def test_eval_malformed_run_config_exit_1(tmp_path, dataset, capsys, run_config):
    checkpoint = write_run_dir(tmp_path / "run", '{"mean": [0, 0, 0], "std": [1, 1, 1]}')
    (tmp_path / "run" / "run_config.json").write_text(run_config)
    code = main(["eval", "--checkpoint", checkpoint, "--data", dataset])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "run_config.json" in err


def test_eval_run_config_with_strategy_alias_exit_1(tmp_path, dataset, capsys):
    # each strategy has one spelling; the config is checked before the run directory is read
    checkpoint = write_run_dir(tmp_path / "run", "{}")
    run = RunConfig.load(None, {"train": {"strategy": "time-sequential"}}, seed=0)
    run.write_resolved(tmp_path / "run")
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
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    for block in ("backbone", "intra", "inter", "blend", "fusion", "multi-head",
                  "gate", "moe", "classifier", "loss", "composed"):
        assert block in out
    assert "passed" in out


def test_gradcheck_fault_injection_names_offending_block(capsys, monkeypatch, scale_backward):
    # corrupting a stage node's backward breaks the stage that uses it (the
    # conv blocks after the first take the Winograd path); the fault must be
    # large because the report's relative error floors its denominator at 1
    for op, block in (("attention_pool", "intra-attention"), ("conv1d_relu", "backbone")):
        scale_backward(op, 1000.0)
        code = main(["gradcheck", "--seed", "0"])
        monkeypatch.undo()
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
        assert block in out.split("FAILED for:")[1]


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

    run = RunConfig.load(tiny_config, {"train": {"epochs": "1"}}, seed=0)
    rows = ablate(run, dataset, cells, ["time_sequential"], [16], [0, 1], tmp_path / "direct")
    assert [{k: str(v) for k, v in row.items()} for row in rows] == csv_rows
    assert [r["strategy"] for r in csv_rows] == ["time_sequential"] * 6
    assert all(r["status"] == "ok" for r in csv_rows)
    capsys.readouterr()

    for row in csv_rows:
        for seed, f1 in zip((0, 1), row["f1_per_seed"].split(";")):
            cell_dir = out / f"{row['cell']}_{row['strategy']}_b16_s{seed}"
            resolved = json.loads((cell_dir / "run_config.json").read_text())
            assert resolved["seed"] == seed
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
        resolved = json.loads((out / f"{cell}_{strategy}_b16_s0/run_config.json").read_text())
        assert resolved["train"]["strategy"] == strategy


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
     ("model.heads=3", "d_model (8) must be divisible by heads (3)")],
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
    ],
)
def test_ablate_bad_grid_exit_1_before_reading_data(tmp_path, capsys, flag, value, message):
    # a missing data directory would exit 2, so exit 1 shows the grid is checked first
    code = main(["ablate", "--data", "/nonexistent", "--out", str(tmp_path / "abl"), flag, value])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()
