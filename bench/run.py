"""extpart benchmark: one workload, one closed-loop run, every metric.

    python3 bench/run.py --workload chi-cograph --seed 1 --seconds 20 --trace 0

Run from the root of an extpart checkout. The run builds the workload's
pool, starts a fresh workload process (bench/worker.py) that sends
whole passes of requests through `extpart.cli.main` for at least
--seconds, then checks every answer here, outside the timed region, and
prints one JSON object as the last line of stdout: the end-to-end
metrics with --trace 0, the per-module metrics with --trace 1. Files
go to .bench_work/ in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 25
WORKER_TIMEOUT_S = 150
TAIL_LEVELS = (50, 75, 90, 95, 99)
KNOWN_STATUS = {"exit3": 3, "RecursionError": "RecursionError"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {here!r}); import speed; a = speed.kernel(); "
    "t = time.perf_counter(); import extpart, extpart.cli; d = time.perf_counter() - t; "
    "print(d, (a + speed.kernel()) / 2)"
)

# Per-module metrics from the traced run, per pass: (name, unit).
TIMED = (
    ("io.parse_graph_text", ("calls", "s")),
    ("io.parse_partition_text", ("s",)),
    ("graphs.induced_subgraph", ("calls", "s")),
    ("moddecomp.decompose", ("calls", "s")),
    ("independent_sets.alpha", ("calls", "s")),
    ("independent_sets.is_1ext_oracle", ("calls", "s")),
    ("independent_sets.mis_covered_vertices", ("calls", "s")),
    ("independent_sets.mis_stats", ("calls", "s")),
    ("independent_sets.weighted_profile", ("calls", "s")),
    ("extend.is_1ext_mw", ("calls", "self_s")),
    ("extend.is_1ext_cograph", ("calls", "s")),
    ("access.access_proportion", ("calls", "self_s")),
    ("access.starvation_set", ("calls", "self_s")),
    ("partition.chi_1ext", ("calls", "self_s")),
    ("partition.feasible_tuples_mw", ("calls", "self_s")),
    ("partition.tuple_join", ("calls", "s")),
    ("partition.tuple_sum", ("calls", "s")),
    ("partition.verify_partition", ("calls", "s")),
    ("genset.solve", ("calls", "s")),
    ("cli.main", ("self_s",)),
)
PER_PASS_COUNTERS = (
    "moddecomp.prime_nodes",
    "partition.tuple_join.pairs",
    "partition.tuple_join.kept",
    "partition.tuple_sum.pairs",
    "partition.tuple_sum.kept",
    "partition.root_tuples",
)
MAX_COUNTERS = ("moddecomp.max_prime_width", "independent_sets.weighted_profile.max_n")
FAILURE_KINDS = ("exit2", "exit3", "exception", "wrong_answer")


def load_bruteforce(root: Path):
    """tests/bruteforce.py of the checkout (needs src/ on sys.path)."""
    spec = importlib.util.spec_from_file_location("bruteforce", root / "tests" / "bruteforce.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_setup(root: Path, env: dict) -> list[tuple[float, float]]:
    """(import time, calibration time) of extpart and extpart.cli in
    fresh processes; the first import (which may compile bytecode) is
    not counted."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(here=str(HERE))], env=env, cwd=root,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        if i:
            d, cal = map(float, out.split())
            samples.append((d, cal))
    return samples


def calibrated(seconds: float, cal_s: float) -> float:
    return seconds * speed.REFERENCE_S / cal_s


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_level(pass_size: int) -> int:
    """Highest listed percentile leaving at least ten samples beyond it
    within one pass, so every run has at least ten."""
    return max(q for q in TAIL_LEVELS if pass_size * (100 - q) / 100 >= 10)


def per_layer(res: dict, failures: dict, attempted: int, known_failing: int) -> dict:
    summary = res["trace"]
    passes = len(res["passes"])
    names = summary["names"]
    counters = summary["counters"]
    m: dict[str, tuple[float, str]] = {}
    for name, fields in TIMED:
        got = names.get(name, {"calls": 0, "ns": 0, "self_ns": 0})
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = (got["calls"] / passes, "count")
            elif f == "s":
                m[f"{name}.s"] = (got["ns"] / 1e9 / passes, "s")
            else:
                m[f"{name}.self_s"] = (got["self_ns"] / 1e9 / passes, "s")
    for key in PER_PASS_COUNTERS:
        m[key] = (counters.get(key, 0) / passes, "count")
    for key in MAX_COUNTERS:
        m[key] = (counters.get(key, 0), "count")
    for op in ("tuple_join", "tuple_sum"):
        pairs = counters.get(f"partition.{op}.pairs", 0)
        kept = counters.get(f"partition.{op}.kept", 0)
        m[f"partition.{op}.kept_per_pair"] = (kept / pairs if pairs else 0.0, "ratio")
    def request_s(runs) -> float:
        return sum(calibrated(rec["ns"] / 1e9, rec["cal_s"]) for records in runs for rec in records)

    overhead = (request_s(res["passes"]) - request_s(res["untraced"])) / passes
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.self_sum_gap_s"] = (summary["self_sum_gap_ns"] / 1e9, "s")
    for kind in FAILURE_KINDS:
        m[f"failures.{kind}"] = (failures.get(kind, 0), "count")
    m["failed_ratio"] = (sum(failures.values()) / attempted, "ratio")
    m["known_failures.failing"] = (known_failing, "count")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "extpart" / "__init__.py").is_file() or not (
        root / "tests" / "bruteforce.py"
    ).is_file():
        print("error: run from the root of an extpart checkout "
              "(src/extpart and tests/bruteforce.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from check import check, classify, expected_stdout

    items = corpus.pool(args.workload)
    expected = json.loads((HERE / "expected" / f"{args.workload}.json").read_text())
    if expected["pool_digest"] != corpus.pool_digest(items):
        print("error: bench/expected is stale for this pool; run bench/make_expected.py",
              file=sys.stderr)
        return 1
    known_items = corpus.known_failures(args.workload)

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    setup = [] if args.trace else measure_setup(root, env)
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--dir", str(work)],
        env=env, cwd=root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        sys.stderr.write(worker.stderr)
        print(f"error: workload process exited with {worker.returncode}", file=sys.stderr)
        return 1
    res = json.loads((work / "results.json").read_text())

    bruteforce = load_bruteforce(root)
    answers = expected["answers"]
    failures: dict[str, int] = {}
    detail: dict[str, int] = {}
    raw_ms, cal_ms = [], []
    goodput = {"raw": [], "calibrated": []}  # correct answers per second, per pass
    for p, records in enumerate(res["passes"]):
        reqs = {r.index: r for r in corpus.pass_requests(items, args.seed, p, work / f"pass{p}")}
        good = 0
        for rec in records:
            raw_ms.append(rec["ns"] / 1e6)
            cal_ms.append(calibrated(rec["ns"] / 1e6, rec["cal_s"]))
            item = items[rec["index"]]
            kind = check(item, reqs[rec["index"]], rec, answers[item.name], bruteforce)
            if kind is None:
                good += 1
                continue
            failures[kind.split(":")[0]] = failures.get(kind.split(":")[0], 0) + 1
            detail[f"{item.name}:{kind}"] = detail.get(f"{item.name}:{kind}", 0) + 1
        n = len(records)
        goodput["raw"].append(good / (sum(raw_ms[-n:]) / 1e3))
        goodput["calibrated"].append(good / (sum(cal_ms[-n:]) / 1e3))

    known_failing = 0
    known_ok = True
    known_detail = []
    for i, (item, rec) in enumerate(zip(known_items, res["known"])):
        ref = expected["known"][item.name]
        req = corpus.make_request(item, args.seed, 0, i, work / "known")
        if rec["status"] == KNOWN_STATUS[ref["fails_with"]]:
            known_failing += 1
            known_detail.append(f"{item.name}: still fails ({ref['fails_with']})")
        elif (rec["status"], rec["stdout"]) == expected_stdout(item, req, ref):
            known_detail.append(f"{item.name}: now answered correctly")
        else:
            known_ok = False
            known_detail.append(f"{item.name}: {classify(rec['status'])}")

    attempted = len(raw_ms)
    failed = sum(failures.values())
    q = tail_level(len(items))

    def end_to_end(kind: str, ms: list[float], setup_s: list[float]) -> dict:
        ms = sorted(ms)
        return {
            "answers_per_s": (statistics.median(goodput[kind]), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_tail_ms": (nearest_rank(ms, q), "ms"),
            "peak_rss_mb": (res["peak_rss_kib"] / 1024, "MiB"),
            "setup_s": (statistics.median(setup_s), "s"),
        }

    raw = {}
    if args.trace:
        metrics = per_layer(res, failures, attempted, known_failing)
    else:
        raw = end_to_end("raw", raw_ms, [d for d, _ in setup])
        metrics = end_to_end("calibrated", cal_ms, [calibrated(d, c) for d, c in setup])
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(res["passes"]), "pass_size": len(items),
        "request_s": sum(raw_ms) / 1e3, "latency_tail_percentile": q,
        "latency_samples": attempted, "uncalibrated": {k: v for k, (v, _) in raw.items()},
        "failures": failures, "failure_detail": detail, "known_failures": known_detail,
        "corpus_sha256": res["corpus_digest"], "absent": res.get("trace", {}).get("absent", []),
    }
    out = {
        "correct": failed == 0 and known_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "record.json").write_text(json.dumps({"info": info, **out}, indent=1))
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    print(f"info: {json.dumps(info)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
