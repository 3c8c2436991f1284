"""Measure a commit: run every workload of BENCHMARK.json on seeds 1-10
untraced and once traced (seed 1), then on seeds 11-20 untraced again,
and write all runs with their medians and spreads.

    python3 bench/baseline.py --out bench/baseline.json   # from the repository root

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of `statistics.quantiles(values, n=4)`; BENCHMARK.json bounds
it for the end-to-end metrics. The second set shows whether two sets of
runs of the same code agree: `change` is its median relative to the
first set's, signed so that a positive value is a worsening.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 11)
REPEAT_SEEDS = range(11, 21)
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    info = json.loads(out[-2].removeprefix("info: "))
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "info": info, **result}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def measure_set(workload: str, seeds: range, seconds: int, metrics: list[dict]) -> dict:
    runs = [run(workload, s, seconds, 0) for s in seeds]
    for r in runs:
        print(workload, r["seed"], r["correct"], r["failed"],
              {k: round(v["value"], 4) for k, v in r["metrics"].items()}, flush=True)
    summary = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
               for m in metrics}
    for name, s in summary.items():
        print(f"  {workload} {name}: median {s['median']:.5g} spread {s['spread']:.4f}",
              flush=True)
    return {"seeds": f"{seeds.start}-{seeds.stop - 1}", "end_to_end": summary, "runs": runs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    record: dict = {"python": platform.python_version(), "run_seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        first = measure_set(w, SEEDS, seconds, metrics)
        traced = run(w, TRACE_SEED, seconds, 1)
        repeat = measure_set(w, REPEAT_SEEDS, seconds, metrics)
        sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in metrics}
        repeat["change"] = {
            name: sign[name] * (s["median"] / first["end_to_end"][name]["median"] - 1)
            for name, s in repeat["end_to_end"].items()
        }
        print(f"  {w} change of medians:",
              {k: round(v, 4) for k, v in repeat["change"].items()}, flush=True)
        record["workloads"][w] = {
            **first,
            "known_failures": traced["info"]["known_failures"],
            "traced": traced,
            "repeat": repeat,
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
