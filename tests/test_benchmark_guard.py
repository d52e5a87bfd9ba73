"""The benchmark's own correctness check, run at its tiny size.

``perfbench/run.py`` compares each run's loss and F1 digests against the
committed tiny references at 1e-7 relative tolerance, and its traced mode
wraps named model functions.  A hot-path change that moves those numbers, or
renames a wrapped function, reports ``failed > 0`` here.

The tiny eval_long pass is 6 batches, below ``CONCURRENT_MIN_BATCHES``, so
``evaluate`` runs it on the calling thread.  Only the full-size eval_long
runs of ``.github/workflows/tier1.yml``, untraced and traced, check the
worker path and the tracer's replay of each stage at another BLAS thread
count.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("train_default", 0), ("train_small", 0), ("eval_long", 0),
        ("train_default", 1), ("train_small", 1), ("eval_long", 1),
    ],
)
def test_tiny_benchmark_run_matches_reference(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    assert detail["detail"]["reference_checked"], proc.stdout
    assert result["correct"], proc.stdout + proc.stderr
    assert result["attempted"] > 0 and result["failed"] == 0, proc.stdout + proc.stderr
