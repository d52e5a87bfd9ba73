import csv
import json

import numpy as np
import pytest

from frameattn.cli import (
    COMPONENT_CELLS,
    DEFAULTS,
    RunConfig,
    _load_splits,
    _overrides_from_args,
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
    code = main(["datagen", "--out", str(tmp_path / "x"), "--classes", "1"])
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
    for strategy in ("time-sequential", "shuffled"):
        run_dir = tmp_path / strategy
        code = main([
            "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
            "--strategy", strategy,
        ])
        assert code == 0
        records = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
        expected = strategy.replace("-", "_")
        assert all(r["strategy"] == expected for r in records)


def test_train_missing_data_dir_exit_2(tmp_path, tiny_config):
    code = main(["train", "--config", tiny_config, "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "run")])
    assert code == 2


def test_train_disable_flags_build_baseline(tmp_path, tiny_config, dataset):
    run_dir = tmp_path / "run"
    code = main([
        "train", "--config", tiny_config, "--data", dataset, "--out", str(run_dir),
        "--disable", "intra,inter,pe,moe,gate", "--lam", "0", "--heads", "2",
    ])
    assert code == 0
    resolved = json.loads((run_dir / "run_config.json").read_text())
    assert resolved["model"]["disable"] == "intra,inter,pe,moe,gate"
    assert resolved["loss"]["lam"] == "0.0"


def test_train_unknown_disable_flag_exit_1(tmp_path, tiny_config, dataset, capsys):
    # "focal" is not a stage: plain cross-entropy is --lam 0
    for flag in ("warp", "focal"):
        code = main([
            "train", "--config", tiny_config, "--data", dataset,
            "--out", str(tmp_path / "run"), "--disable", flag,
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
                 "--classes", "6", "--seed", "5"]) == 0
    code = main(["eval", "--checkpoint", str(run_dir / "checkpoint.bin"),
                 "--data", str(other_data)])
    assert code == 1


def test_flags_override_config_keys_by_dest():
    args = build_parser().parse_args([
        "train", "--data", "d", "--out", "o", "--d-model", "16", "--step", "4", "--lam", "0.1",
    ])
    ov = _overrides_from_args(args)
    assert ov["model"] == {"d_model": "16"}
    assert ov["data"] == {"step": "4"}
    assert ov["loss"] == {"lam": "0.1"}
    assert ov["train"] == ov["synthetic"] == {}


def test_ablate_batch_size_flag_sets_the_grid_batch_sizes():
    # ablate has no --batch-size of its own: the grid sets every cell's batch size
    args = build_parser().parse_args(["ablate", "--data", "d", "--out", "o", "--batch-size", "8"])
    assert args.batch_sizes == "8"
    assert "batch_size" not in vars(args)


def test_defaults_keys_are_unique_across_sections():
    # _overrides_from_args maps a flag dest to its key in whichever section
    keys = [key for values in DEFAULTS.values() for key in values]
    assert len(keys) == len(set(keys))


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


def test_gradcheck_fault_injection_names_offending_block(capsys, scale_tanh_backward):
    # corrupting tanh's backward breaks the stage that uses it (tanh only
    # appears in the within-frame attention scores); the fault must be large
    # because the report's relative error floors its denominator at 1
    scale_tanh_backward(1000.0)
    code = main(["gradcheck", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED" in out
    assert "intra-attention" in out.split("FAILED for:")[1]


def test_ablate_grid_and_csv(tmp_path, tiny_config, dataset):
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
        "--cells", "baseline,full", "--strategies", "time_sequential,shuffled",
        "--batch-sizes", "16", "--seeds", "0,1", "--epochs", "1",
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
        "--batch-sizes", "16", "--seeds", "0,1", "--epochs", "1",
    ]) == 0
    with open(out / "ablation.csv") as fh:
        csv_rows = list(csv.DictReader(fh))

    run = RunConfig.load(tiny_config, {"train": {"epochs": "1"}}, seed=0)
    rows = ablate(run, _load_splits(dataset, run), cells, ["time_sequential"], [16], [0, 1],
                  tmp_path / "direct")
    assert [{k: str(v) for k, v in row.items()} for row in rows] == csv_rows
    assert [r["strategy"] for r in csv_rows] == ["time_sequential"] * 5 + ["shuffled"]
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


def test_ablate_dedupes_pinned_strategy_cells(tmp_path, tiny_config, dataset):
    out = tmp_path / "abl"
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset, "--out", str(out),
        "--cells", "isolated", "--strategies", "time_sequential,shuffled",
        "--batch-sizes", "16", "--seeds", "0", "--epochs", "1",
    ])
    assert code == 0
    with open(out / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["strategy"] == "shuffled"


def test_ablate_unknown_cell_exit_1(tmp_path, tiny_config, dataset):
    code = main([
        "ablate", "--config", tiny_config, "--data", dataset,
        "--out", str(tmp_path / "abl"), "--cells", "everything",
    ])
    assert code == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seeds", "0,x", "--seeds must be comma-separated integers, got '0,x'"),
        ("--batch-sizes", "16,1.5", "--batch-sizes must be comma-separated integers"),
        ("--cells", "full,everything", "unknown ablation cell 'everything'"),
    ],
)
def test_ablate_bad_grid_exit_1_before_reading_data(tmp_path, capsys, flag, value, message):
    # a missing data directory would exit 2, so exit 1 shows the grid is checked first
    code = main(["ablate", "--data", "/nonexistent", "--out", str(tmp_path / "abl"), flag, value])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()
