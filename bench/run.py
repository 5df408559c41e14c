"""avtk benchmark: seeded workloads, checked outputs, one JSON result line.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

A run imports avtk from ``src/`` of the checkout it sits in, sets it up
SETUP_REPS times (fresh import, seeded inputs, tori and documents) and
reports the median as setup_s, makes one untimed warm-up pass whose
answers become the reference, then repeats passes over the workload's
query list until --seconds have passed.  Every answer is checked in every
pass.  Times are quoted at a reference machine speed, through a
calibration timed right before and after every set-up and query (see
query_costs and bench/README.md).  With --trace 1 the first half of the
time runs untraced passes and the second half traced ones, and the result
holds the per-layer metrics and the tracing overhead instead of the
end-to-end metrics.

The second-to-last line of output is the run record (seed, drawn
parameters, machine, load, every end-to-end metric with its unit); the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 9
MIN_PASSES = 2
OUT_DIR = ROOT / ".bench_out"

# An 8x8 determinant over Q by the benchmark's own oracle: about 1.5 ms of
# the same kind of work as avtk's (small Fractions, lists).  It is timed
# right before and right after every query and set-up, to measure the
# machine's speed at that moment.
CALIBRATION = [[(3 * i + 5 * j) % 7 - 3 + 9 * (i == j) for j in range(8)] for i in range(8)]
# Its time on a quiet core of the 2-vCPU Xeon box the benchmark was tuned
# on.  Timed figures are quoted at this machine speed.
CALIBRATION_REF_S = 0.00075


def calibrate():
    t0 = perf_counter()
    oracle.det(CALIBRATION)
    return perf_counter() - t0


def speed(before):
    """Reference over actual machine speed, from the calibrations around a call."""
    return CALIBRATION_REF_S / ((before + calibrate()) / 2)


def run_pass(queries, reference, tally):
    """One pass; returns (wall seconds, [(query, latency, speed, tested)]).

    tested is a search query's candidate count, else None.  Answers are not
    kept past their check, so the heap does not grow from pass to pass."""
    started = perf_counter()
    timings = []
    for q in queries:
        before = calibrate()
        t0 = perf_counter()
        try:
            summary = q.run()
        except Exception:
            summary, error = None, traceback.format_exc(limit=3)
        else:
            error = None
        latency = perf_counter() - t0
        factor = speed(before)
        if error is None:
            try:
                error = q.check(summary)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is None and q.qid in reference and reference[q.qid] != summary:
            error = "answer differs from the first pass"
        reference.setdefault(q.qid, summary)
        tally["attempted"] += 1
        if error is not None:
            tally["failed"] += 1
            if len(tally["errors"]) < 5:
                tally["errors"].append(f"{q.qid}: {error}")
        tested = summary[1] if q.candidates and summary is not None else None
        timings.append((q, latency, factor, tested))
    return perf_counter() - started, timings


def run_passes(queries, reference, tally, seconds):
    walls, timings = [], []
    deadline = perf_counter() + seconds
    while len(walls) < MIN_PASSES or perf_counter() < deadline:
        wall, t = run_pass(queries, reference, tally)
        walls.append(wall)
        timings.extend(t)
    return walls, timings


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(args):
    if not (ROOT / "src" / "avtk" / "__init__.py").is_file():
        print(f"bench: no avtk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "AVTK_THREADS": spec.threads,
        "loadavg_before": list(os.getloadavg()),
    }
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    os.environ["AVTK_THREADS"] = "1"
    try:
        setups, scaled = [], []
        for _ in range(SETUP_REPS):
            before = calibrate()
            t0 = perf_counter()
            av = workloads.import_avtk()
            if not Path(av.cli.__file__).resolve().is_relative_to(ROOT / "src"):
                print(f"bench: avtk imported from {av.cli.__file__}", file=sys.stderr)
                return 2
            params, queries = spec.setup(av, random.Random(args.seed), str(work))
            setups.append(perf_counter() - t0)
            scaled.append(setups[-1] * speed(before))
        setup_s = statistics.median(scaled)
        record["setup_raw_s"] = setups
        record["params"] = params
        record["order"] = [q.qid for q in queries]

        tally = {"attempted": 0, "failed": 0, "errors": []}
        reference = {}
        run_pass(queries, reference, tally)  # warm-up, sequential: the reference answers
        os.environ["AVTK_THREADS"] = str(spec.threads)
        if args.trace:
            metrics = traced_run(args, queries, reference, tally)
        else:
            metrics = timed_run(args, queries, reference, tally, setup_s, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = list(os.getloadavg())
    record["failed_share"] = metric(tally["failed"] / tally["attempted"], "ratio")
    record["errors"] = tally["errors"]
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


def query_costs(timings):
    """Each query's median latency at the reference machine speed.

    The box's speed swings by up to 2x with its neighbours' load, from one
    moment to the next and sometimes for a whole run, so raw times carry
    whatever load their run met.  The calibrations right around a call met
    the same load, and the latency relative to them does not.
    """
    scaled = {}
    for q, latency, factor, _ in timings:
        scaled.setdefault(q.qid, []).append(latency * factor)
    return {qid: statistics.median(v) for qid, v in scaled.items()}


def timed_run(args, queries, reference, tally, setup_s, record):
    walls, timings = run_passes(queries, reference, tally, args.seconds)
    raw = {}
    for q, latency, _, _ in timings:
        raw.setdefault(q.qid, []).append(latency)
    cost = query_costs(timings)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(sum(cost.values()), "s"),
        # The median over the pass's queries.  A pass of `search` holds four
        # queries of very different cost, so the median of the pooled samples
        # would fall between two cost clusters and jump with their extremes.
        "query_p50_s": metric(statistics.median(cost.values()), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    report = dict(metrics)
    report["passes"] = len(walls)
    report["query_s"] = cost
    report["speed_median"] = metric(statistics.median(f for _, _, f, _ in timings), "ratio")
    report["wall_median_raw_s"] = metric(statistics.median(walls), "s")
    report["query_median_p50_raw_s"] = metric(
        statistics.median(statistics.median(v) for v in raw.values()), "s")
    latencies = [latency * factor for _, latency, factor, _ in timings]
    report["query_samples"] = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    if sum(t > p90 for t in latencies) >= 10:
        report["query_p90_s"] = metric(p90, "s")
    tested = {q.qid: n for q, _, _, n in timings if n is not None}
    if tested:
        report["candidates_per_s"] = metric(
            sum(tested.values()) / sum(cost[qid] for qid in tested), "1/s")
    record["report"] = report
    return metrics


def traced_run(args, queries, reference, tally):
    _, plain = run_passes(queries, reference, tally, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        walls, traced = run_passes(queries, reference, tally, args.seconds / 2)
    finally:
        tracer.uninstall()
    values = tracer.summary(len(walls))
    # Passes at the reference machine speed, as wall_s; the layer times are raw.
    traced_s = sum(query_costs(traced).values())
    values["trace.wall_s"] = traced_s
    values["trace.overhead_s"] = traced_s - sum(query_costs(plain).values())
    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        metrics[m["name"]] = metric(values.get(m["name"], 0), m["unit"])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    return metrics


def run_all(args):
    """Every workload in its own process, then one table of every metric."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed ({proc.returncode})\n{proc.stderr}", file=sys.stderr)
            return 1
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        shown = dict(record.get("report", result["metrics"]))
        shown["failed_share"] = record["failed_share"]
        for key, m in shown.items():
            if not isinstance(m, dict):
                m = metric(m, "count")  # passes and query samples
            elif "value" not in m:
                continue  # per-query figures stay in the record
            rows.append(f"{name:10} {key:45} {m['value']:>14.6g} {m['unit']}")
        rows.append(f"{name:10} {'correct':45} {str(result['correct']):>14}")
    print("\n".join(rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: avtk's process pool then shuts down and waits for
    # its workers instead of leaving them behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
