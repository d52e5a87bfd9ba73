"""Run one workload of the frameattn benchmark in this process.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is ``{"detail": ...}`` with
sample counts, the output digest and the machine.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train_default", "train_small", "eval_long"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import frameattn from this checkout's src/, never from elsewhere."""
    if not (SRC / "frameattn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no frameattn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import frameattn

    if SRC.resolve() not in Path(frameattn.__file__).resolve().parents:
        sys.exit(f"perfbench: imported frameattn from {frameattn.__file__}, not {SRC}")


def measure(args, workdir: Path) -> dict:
    """Prepare inputs, run the workload, and return the result object."""
    import harness
    import tracer

    table = harness.WORKLOADS if args.size == "full" else harness.TINY
    w = table[args.workload]
    inputs, out = workdir / "inputs", workdir / "out"
    harness.prepare(w, args.seed, inputs)

    clock = tracer.Tracer(w) if args.trace else harness.Clock(w)
    began = time.perf_counter()
    clock.install()
    try:
        setups, units = harness.run_units(w, args.seed, args.seconds, clock, inputs, out)
        if args.trace and not w.train:
            clock.probe_training_layers(w, args.seed, inputs, out)
    finally:
        clock.uninstall()
    digests = [u.digest for u in units]
    attempted, failed, referenced = harness.verify(args.workload, args.size, args.seed, digests)

    if args.trace:
        replays, r_attempted, r_failed = clock.replay()
        attempted, failed = attempted + r_attempted, failed + r_failed
        values, counts = clock.layer_metrics(units, replays)
        metric_units, compared = tracer.LAYER_METRICS, None
    else:
        values, counts, compared = harness.end_to_end(w, setups, units)
        metric_units = harness.END_TO_END
    missing = sorted(set(metric_units) - set(values))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "units": len(units),
        "run_s": time.perf_counter() - began,
        "unit_wall_s": [u.end - u.start for u in units],
        "counts": counts,
        "first_vs_later_units": compared,
        "missing": missing,
        "digest": digests[0],
        "reference_checked": referenced,
        "machine": harness.machine(BLAS_THREADS),
    }
    print(json.dumps({"detail": detail}))
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in metric_units.items() if k in values},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, workdir)
    except Exception:  # the program failed: report it as a failed operation
        traceback.print_exc()
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
