"""Tests of the benchmark itself, at the tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import gc
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import suite
import tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_the_contract_and_the_code():
    b = bench()
    workloads = [w["name"] for w in b["workloads"]]
    e2e = [m["name"] for m in b["end_to_end"]]
    layers = [m["name"] for m in b["per_layer"]]
    for name in workloads + e2e + layers:
        assert NAME.match(name), name
    assert len(set(workloads + e2e + layers)) == len(workloads + e2e + layers)
    assert workloads == list(harness.WORKLOADS) == list(harness.TINY)
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == tracer.LAYER_METRICS


def traced_tiny_run(tmp_path, name="train_default"):
    w = harness.TINY[name]
    harness.prepare(w, 0, tmp_path / "in")
    t = tracer.Tracer(w)
    t.install()
    try:
        setups, units = harness.run_units(w, 0, 0, t, tmp_path / "in", tmp_path / "out")
    finally:
        t.uninstall()
    return t, setups, units


def test_traced_run_restores_every_wrapped_function(tmp_path):
    w = harness.TINY["train_default"]
    probe = tracer.Tracer(w)
    probe.install()
    patched = list(probe._saved)
    probe.uninstall()
    assert len(patched) > 15
    callbacks = list(gc.callbacks)

    traced_tiny_run(tmp_path)

    for owner, name, orig in patched:
        assert owner.__dict__[name] is orig, f"{owner.__name__}.{name} still wrapped"
    assert list(gc.callbacks) == callbacks


@pytest.mark.parametrize("name", ["train_default", "eval_long"])
def test_stage_spans_lie_inside_their_forward(tmp_path, name):
    t, _, _ = traced_tiny_run(tmp_path, name)
    spans = {s.id: s for s in t.spans}
    forwards = {i for i, s in spans.items() if s.name.startswith("model.forward")}
    children = [s for s in t.spans if s.parent in forwards]
    assert {s.name.split(".")[1] for s in children} == set(tracer.STAGES)
    inside = {}
    for s in children:
        parent = spans[s.parent]
        assert parent.start <= s.start <= s.end <= parent.end
        inside[s.parent] = inside.get(s.parent, 0.0) + s.ms
    for fid, total in inside.items():
        assert total <= spans[fid].ms


def test_replay_reproduces_the_in_graph_stage_outputs(tmp_path):
    t, _, units = traced_tiny_run(tmp_path)
    times, attempted, failed = t.replay()
    assert set(times) == set(tracer.STAGES) | {"head_loss"}
    assert attempted > 0 and failed == 0
    values, counts = t.layer_metrics(units, times)
    assert set(values) == set(tracer.LAYER_METRICS)
    assert counts["data.csv_rows_per_s"] == counts["data.load_recordings_s"]


def test_tracing_overhead_is_unresolved_unless_above_the_untraced_quartiles():
    walls = [10.0, 10.5, 11.0, 11.5, 12.0]
    assert suite.tracing_overhead(11.2, walls)["overhead_s"] is None
    assert suite.tracing_overhead(9.0, walls)["overhead_s"] is None
    assert suite.tracing_overhead(14.0, walls)["overhead_s"] == pytest.approx(3.0)


def test_verify_counts_mismatches_and_non_finite_values():
    good = [[0, "train", 1.0, 0.5], [0, "val", 0.9, 0.4]]
    assert harness.verify("train_small", "none", 0, [good, good])[:2] == (4, 0)
    drifted = [[0, "train", 1.0 + 1e-3, 0.5], [0, "val", float("nan"), 0.4]]
    assert harness.verify("train_small", "none", 0, [good, drifted])[:2] == (4, 2)
    assert harness.verify("train_small", "none", 0, [good, good[:1]])[:2] == (4, 1)


def run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_smoke_run_passes_output_verification(name, trace):
    proc = run_cli(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                   "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, last = proc.stdout.strip().splitlines()
    result, detail = json.loads(last), json.loads(detail_line)["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["reference_checked"]
    expected = tracer.LAYER_METRICS if trace == "1" else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = run_cli(tmp_path, "--workload", "train_small", "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
