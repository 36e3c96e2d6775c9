"""Run the benchmark N times per workload and report each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed-base 100]

Each run gets its own ``--seed`` (``seed-base``, ``seed-base + 1``, ...)
and ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end
metric it prints the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the bound ``BENCHMARK.json`` sets and the same spread of
the host reference timings, so host drift can be told from program
change.  A run that fails or prints ``"correct": false`` is reported and
counted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> "tuple[dict, dict, float]":
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    host = next(
        (json.loads(line[5:]) for line in lines if line.startswith("host ")), {}
    )
    return json.loads(lines[-1]), host, wall


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: "dict[str, list[float]]" = {}
        refs: "dict[str, list[float]]" = {}
        walls, bad = [], 0
        for i in range(args.runs):
            seed = args.seed_base + i
            result, host, wall = run_once(workload, seed, args.seconds)
            walls.append(wall)
            bad += (not result["correct"]) or result["failed"] > 0
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for when in ("ref_before", "ref_after"):
                for name, ms in host.get(when, {}).items():
                    refs.setdefault(name, []).append(ms)
            print(
                f"{workload} seed {seed} ({wall:.1f}s): "
                + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
                flush=True,
            )
        rows = {}
        for name, vs in values.items():
            spread = quartile_spread(vs) if len(vs) >= 2 and statistics.median(vs) else 0.0
            rows[name] = {"median": statistics.median(vs), "spread": spread, "bound": bounds.get(name)}
        host_spread = {name: quartile_spread(vs) for name, vs in refs.items() if len(vs) >= 2}
        summary[workload] = {
            "metrics": rows, "host_ref_spread": host_spread,
            "bad_runs": bad, "max_wall_s": max(walls), "mean_wall_s": statistics.mean(walls),
        }
        print(f"== {workload}: {args.runs} runs, {bad} bad, wall mean {statistics.mean(walls):.1f}s max {max(walls):.1f}s")
        for name, row in rows.items():
            bound = row["bound"]
            flag = ""
            if bound is not None:
                flag = " OK" if row["spread"] < bound / 3 else (" within bound" if row["spread"] <= bound else " TOO NOISY")
            print(
                f"   {name:>16}: median {row['median']:.6g}  spread {100 * row['spread']:.2f}%"
                + (f"  bound {100 * bound:.0f}%{flag}" if bound is not None else "")
            )
        print("   host reference spread: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in host_spread.items()), flush=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
