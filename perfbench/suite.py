"""Run every workload of the frameattn benchmark and summarise it.

    python3 perfbench/suite.py --seeds 0-9 --label seed-commit

For each workload, one untraced run per seed and one traced run (first seed),
each in its own process and one at a time. Prints every end-to-end metric with
its unit, runs, samples per run, median and spread (IQR / median, against the
bound in BENCHMARK.json), the per-layer table of the traced run, the tracing
overhead and the machine; writes all of it to
``perfbench/results/BENCH_<date>_<label>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tracing_overhead(traced_wall: float, untraced_walls: list[float]) -> dict:
    """The traced run's ``wall_s`` against the untraced runs' ``wall_s``.

    The overhead counts as resolved only when the traced time lies above the
    untraced third quartile: inside the quartiles it cannot be told from
    run-to-run drift, and tracing only adds work, so a time below them is
    drift too.
    """
    if len(untraced_walls) < 2:
        q1 = q3 = untraced_walls[0]
    else:
        q1, _, q3 = statistics.quantiles(untraced_walls, n=4)
    resolved = traced_wall > q3
    return {
        "traced_wall_s": traced_wall,
        "untraced_wall_s_q1": q1,
        "untraced_wall_s_q3": q3,
        "overhead_s": traced_wall - statistics.median(untraced_walls) if resolved else None,
    }


def summarise(bench: dict, runs: dict[str, list[dict]], traced: dict[str, dict]) -> dict:
    summary = {}
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, results in runs.items():
        rows = {}
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in results]
            rows[name] = {
                "unit": spec["unit"],
                "runs": len(values),
                "samples_per_run": results[0]["detail"]["counts"].get(name),
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": spec["bound"],
                "values": values,
            }
        entry = {
            "metrics": rows,
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "digests": {str(r["detail"]["seed"]): r["detail"]["digest"] for r in results},
            "first_vs_later_units": {  # medians over the runs
                part: {
                    k: statistics.median(r["detail"]["first_vs_later_units"][part][k] for r in results)
                    for k in ("wall_s", "step_ms_p90")
                }
                for part in ("first", "later")
            },
        }
        if workload in traced:
            t = traced[workload]
            entry["layers"] = {
                k: {**v, "count": t["detail"]["counts"].get(k)}
                for k, v in t["result"]["metrics"].items()
            }
            entry["traced_correct"] = t["result"]["correct"]
            entry["tracing_overhead"] = tracing_overhead(
                t["detail"]["unit_wall_s"][0], rows["wall_s"]["values"]
            )
        summary[workload] = entry
    return summary


def print_summary(summary: dict, machine: dict) -> None:
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for workload, entry in summary.items():
        print(f"\n== {workload}  correct={entry['correct']} "
              f"failed={entry['failed']}/{entry['attempted']}")
        print(f"{'metric':22s} {'unit':9s} {'runs':>4s} {'n/run':>6s} {'median':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, row in entry["metrics"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above bound/3)"
            print(f"{name:22s} {row['unit']:9s} {row['runs']:4d} {row['samples_per_run']!s:>6s} "
                  f"{row['median']:12.4f} {row['spread']:7.3f} {row['bound']:6.2f}{flag}")
        for part, fig in entry["first_vs_later_units"].items():
            print(f"{part} unit(s): wall_s {fig['wall_s']:.4f} s, step_ms_p90 {fig['step_ms_p90']:.4f} ms")
        if "layers" in entry:
            o = entry["tracing_overhead"]
            overhead = (
                f"{o['overhead_s']:+.3f} s" if o["overhead_s"] is not None
                else "unresolved (not above the untraced third quartile)"
            )
            print(f"-- traced run (correct={entry['traced_correct']}), wall_s "
                  f"{o['traced_wall_s']:.3f} s against untraced quartiles "
                  f"[{o['untraced_wall_s_q1']:.3f}, {o['untraced_wall_s_q3']:.3f}] s; "
                  f"tracing overhead {overhead}")
            for name, row in entry["layers"].items():
                print(f"   {name:32s} {row['unit']:7s} n={row['count']!s:>5s} {row['value']:14.4f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None, help="comma list (default: all)")
    p.add_argument("--seeds", default="0-4", help="e.g. 0-9 or 0,3,5")
    p.add_argument("--label", default="local")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs: dict[str, list[dict]] = {}
    traced: dict[str, dict] = {}
    for workload in names:
        for seed in seeds:
            runs.setdefault(workload, []).append(run_one(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        traced[workload] = run_one(workload, seeds[0], seconds, 1)
    machine = next(iter(runs.values()))[0]["detail"]["machine"]
    summary = summarise(bench, runs, traced)
    print_summary(summary, machine)

    stamp = datetime.date.today().isoformat()
    out = HERE / "results" / f"BENCH_{stamp}_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    record = {"label": args.label, "date": stamp, "seconds": seconds, "seeds": seeds,
              "machine": machine, "workloads": summary}
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
