"""Workload process: a closed loop with one client and no threads.

Started fresh by run.py with the checkout's `src` on the path. It
imports extpart, then sends the requests of one pass after another
through `extpart.cli.main(argv)` in-process, each only after the
previous one returned, and stops after the first whole pass that ends
at or beyond the time limit, counted in calibrated request time (see
speed.py). Each pass's documents are written before the pass starts,
outside the timed region. Known failures run once after the loop.
Outputs, exit codes and latencies go to results.json; run.py checks
them.

With --trace 1, passes run under the outside-in tracer for half the
time; each is sent again untraced right after it, and the difference
in request time is the tracing overhead.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --dir D
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import speed  # noqa: E402

CAL_EVERY_NS = 250_000_000
# Peak RSS is read after this many passes, so that it covers the same
# amount of work (three relabellings of every instance) in every run.
RSS_PASSES = 3


def send(call) -> dict:
    """One request: its exit code (or the name of the exception it
    raised), its output and its wall time in ns."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter_ns()
        try:
            status = call()
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failure kind to report, not to stop on
            status = type(exc).__name__
        ns = time.perf_counter_ns() - t0
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()[-300:], "ns": ns}


def run_pass(cli, items, seed: int, pass_no: int, work: Path, tracer=None, digest=None) -> list:
    """Send one pass through `cli.main`; returns its records in sending
    order. The calibration loop runs between requests, about every
    CAL_EVERY_NS of request time, and each request gets the mean of the
    two runs that bracket it."""
    main = cli.main  # the traced wrapper while the tracer is installed
    directory = work / f"pass{pass_no}"
    reqs = corpus.pass_requests(items, seed, pass_no, directory)
    if not directory.exists():
        corpus.write_request_files(reqs, digest)
    records: list[dict] = []
    pending: list[dict] = []
    before = speed.kernel()
    since = 0
    for seq, r in enumerate(reqs):
        if tracer is None:
            call = functools.partial(main, list(r.argv))
        else:
            call = functools.partial(tracer.request, pass_no * 100_000 + seq, main, list(r.argv))
        gc.collect()  # no garbage of one request is left for the next
        rec = {"index": r.index, **send(call)}
        records.append(rec)
        pending.append(rec)
        since += rec["ns"]
        if since >= CAL_EVERY_NS or seq == len(reqs) - 1:
            after = speed.kernel()
            for p in pending:
                p["cal_s"] = (before + after) / 2
            before, pending, since = after, [], 0
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    work = Path(args.dir)

    import extpart.cli as cli

    result: dict = {"passes": []}
    items = corpus.pool(args.workload)
    digest = hashlib.sha256()
    tracer = None
    limit_ns = args.seconds * 1e9
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        result["untraced"] = []
        limit_ns /= 2

    spent = 0
    while spent < limit_ns:
        p = len(result["passes"])
        if tracer is not None:
            tracer.install()
        records = run_pass(cli, items, args.seed, p, work, tracer, digest if p == 0 else None)
        if tracer is not None:
            # the same pass again untraced, right after, for the overhead
            tracer.uninstall()
            result["untraced"].append(run_pass(cli, items, args.seed, p, work))
        result["passes"].append(records)
        spent += sum(rec["ns"] * speed.REFERENCE_S / rec["cal_s"] for rec in records)
        if p < RSS_PASSES:
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["corpus_digest"] = digest.hexdigest()

    if tracer is not None:
        walls = {p * 100_000 + seq: rec["ns"]
                 for p, records in enumerate(result["passes"]) for seq, rec in enumerate(records)}
        result["trace"] = tracer.summary(walls)
        tracer.write_spans(work / "spans.tsv")

    result["known"] = []
    for i, item in enumerate(corpus.known_failures(args.workload)):
        req = corpus.make_request(item, args.seed, 0, i, work / "known")
        corpus.write_request_files([req])
        result["known"].append(send(functools.partial(cli.main, list(req.argv))))
    (work / "results.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
