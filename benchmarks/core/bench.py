#!/usr/bin/env python3
"""Core benchmark: six fixed workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/core/bench.py --seed 0            # all six workloads
    python3 benchmarks/core/bench.py --workload packet-incast --seed 3 \\
        --seconds 10 --trace 1                           # one workload, traced
    python3 benchmarks/core/bench.py --compare A.json A2.json -- B.json B2.json

A run prints every metric by name with its unit, checks the outputs,
writes one JSON result (``--out``, default under
``benchmarks/results/core/``) and ends with a one-line JSON summary.  It
exits non-zero when a check fails.  Without ``--workload`` each workload
runs in its own fresh process, one after another, so peak RSS and warm
state stay isolated.  See README.md next to this file for the metrics,
the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import gc
import hashlib
import heapq
import json
import math
import multiprocessing
import os
import pathlib
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "core"
BASELINE = HERE / "BENCH_core.json"
if not (SRC / "repro").is_dir():
    # Never fall back to some other installed copy of the program.
    raise SystemExit(f"{SRC / 'repro'} not found: run from a checkout")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.ckpt.store import write_checkpoint  # noqa: E402
from repro.fluid.maxmin import max_min_rates  # noqa: E402
from repro.hybrid.bridge import BackgroundLoadBridge  # noqa: E402
from repro.lp.ideal import ideal_throughput  # noqa: E402
from repro.sim.events import EventLoop  # noqa: E402

SCHEMA = "pnet.bench.core/1"
DEFAULT_SECONDS = 10
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Timed repetitions per run at the least, however short ``--seconds``.
MIN_REPS = 3
#: Iterations of the calibration loop, and the loop's time on a quiet
#: 2-vCPU reference container.  Shared hosts swing this container's
#: speed by up to 3x, sometimes within one run; every set-up and rep time
#: is scaled by REFERENCE_CALIBRATION_S / (the mean time of the loops
#: just before and after it), which reads host seconds at the reference
#: speed.
CALIBRATION_LOOPS = 40_000
REFERENCE_CALIBRATION_S = 0.055
#: Ceiling on one workload process in the all-workloads mode.
WORKLOAD_TIMEOUT = 600


@dataclass(frozen=True)
class Metric:
    """One reported number.

    ``bound`` is the share of the baseline median by which the metric
    may get worse (an absolute amount when ``absolute``).  ``listed``
    marks the metrics listed in the repository's BENCHMARK.json.
    """

    name: str
    unit: str
    note: str = ""
    better: str = "lower"
    bound: Optional[float] = None
    absolute: bool = False
    listed: bool = True


END_TO_END = (
    Metric("setup_s", "s", "reference host time, median set-up",
           bound=0.25),
    Metric("wall_s", "s", "reference host time, median build + run",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "largest RSS of any process", bound=0.10),
    Metric("fct_p50_ms", "ms", "simulated time, median FCT", bound=0.01,
           listed=False),
    Metric("fct_p90_ms", "ms", "simulated time, p90 FCT", bound=0.01,
           listed=False),
    Metric("failed_frac", "ratio", "flows (trials) failed / launched",
           bound=0.0, absolute=True, listed=False),
)

#: Per-layer values that must repeat exactly between runs of one seed.
EXACT = tuple(
    Metric(name, unit)
    for name, unit in (
        ("sim.events.processed", "count"),
        ("sim.events.per_mtu", "events/MTU"),
        ("sim.events.max_heap", "count"),
        ("sim.events.pushes", "count"),
        ("sim.events.cancels", "count"),
        ("sim.link.drops", "count"),
        ("sim.tcp.retransmits", "count"),
        ("fluid.maxmin.calls", "count"),
        ("fluid.events", "count"),
        ("fluid.max_active", "count"),
        ("hybrid.bridge_refreshes", "count"),
        ("hybrid.promoted", "count"),
        ("routing.pairs", "count"),
        ("lp.solves", "count"),
        ("exp.trials", "count"),
        ("exp.workers", "count"),
        ("exp.cache_misses", "count"),
        ("shard.rounds", "count"),
        ("control.ticks", "count"),
        ("control.decisions", "count"),
        ("control.applied", "count"),
        ("control.skipped_spanning", "count"),
        ("ckpt.saves", "count"),
        ("ckpt.bytes", "B"),
    )
)

#: Host-time per-layer values.  They read 0 on workloads that never
#: enter the layer, so BENCHMARK.json carries each layer's share instead.
TIMES = tuple(
    Metric(name, "s", listed=False)
    for name in (
        *(f"{layer}.self_s" for layer in layers.LAYERS),
        "trace.self_s",
        "sim.events.run_s",
        "fluid.maxmin.call_s",
        "hybrid.refresh_s",
        "lp.solve_s",
        "ckpt.write_s",
        "routing.select_s",
        "topology.build_s",
        "shard.parent_cpu_s",
        "shard.worker_cpu_s",
    )
)

PER_LAYER = (
    *EXACT,
    *(Metric(f"{layer}.self_share", "%") for layer in layers.LAYERS),
    Metric("trace_overhead", "x"),
    *TIMES,
)

#: Profile entry points: metric -> (function, "calls" | "cumtime").
ENTRY_POINTS = {
    "sim.events.pushes": (EventLoop.schedule_at, "calls"),
    "sim.events.cancels": (EventLoop.cancel, "calls"),
    "sim.events.run_s": (EventLoop.run, "cumtime"),
    "fluid.maxmin.calls": (max_min_rates, "calls"),
    "fluid.maxmin.call_s": (max_min_rates, "cumtime"),
    "hybrid.refresh_s": (BackgroundLoadBridge.refresh, "cumtime"),
    "lp.solves": (ideal_throughput, "calls"),
    "lp.solve_s": (ideal_throughput, "cumtime"),
    "ckpt.write_s": (write_checkpoint, "cumtime"),
}

#: Per-layer values that only a profiled repetition yields.
PROFILED = frozenset(ENTRY_POINTS) | {"trace.self_s", "trace_overhead"} | {
    f"{layer}.{kind}"
    for layer in layers.LAYERS
    for kind in ("self_s", "self_share")
}


# --- environment and provenance -----------------------------------------


def scrub_environment() -> None:
    """Drop every ``PNET_*`` knob so ambient settings cannot alter a run.

    ``run_trial(control=None)`` alone would read ``PNET_CONTROL_POLICY``;
    the workloads pass every knob they use explicitly instead.
    """
    for key in [k for k in os.environ if k.startswith("PNET_")]:
        del os.environ[key]
    os.environ["PNET_JOBS"] = "1"


def _git(*args: str) -> Optional[str]:
    # Only this checkout's own repository, never one above it.
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(args) -> Dict[str, Any]:
    import numpy
    import scipy

    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def stop_children() -> None:
    """Wait for every process this run started, helpers included.

    Shard and pool workers are joined (and stopped if one still runs).
    The shared-memory channels also start multiprocessing's resource
    tracker, which would otherwise outlive this process for a moment;
    closing its pipe ends it and ``_stop`` waits for that.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


# --- one workload --------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def records_digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _jsonable(value):
    return json.loads(json.dumps(value))


def pinned_digest(workload) -> Optional[str]:
    """The committed baseline's digest for this exact configuration."""
    try:
        baseline = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    entry = baseline.get("workloads", {}).get(workload.name)
    if entry is None or entry.get("config") != _jsonable(workload.config()):
        return None
    return entry.get("records_digest")


def calibrate() -> float:
    """Seconds a fixed loop that uses none of the repository takes now.

    Collects garbage first, so every loop starts from a clean heap.
    """
    gc.collect()
    start = time.perf_counter()
    heap: List[Tuple[int, int, str]] = []
    counts: Dict[int, int] = {}
    for i in range(CALIBRATION_LOOPS):
        heapq.heappush(heap, ((i * 7919) % CALIBRATION_LOOPS, i, str(i)))
        counts[i % 997] = counts.get(i % 997, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def run_workload(
    workload, seconds: float, trace: bool, workdir: pathlib.Path
) -> Tuple[Dict[str, Any], layers.Spans]:
    """Set up, time repetitions for ``seconds``, optionally profile one.

    Calibration loops bracket every set-up and rep, and each one's host
    time is scaled to the reference speed by the mean of its two loops.
    Returns the workload's result record and the spans recorded around
    every call into the program.
    """
    spans = layers.Spans(uuid.uuid4().hex)
    engine = ("engine.build", "engine.run")
    # (kind, raw seconds) of every timed unit, in run order; unit i runs
    # between calibrations[i] and calibrations[i + 1].
    units: List[Tuple[str, float]] = []
    calibrations: List[float] = []
    outcomes = []
    with spans.span("workload"):
        for i in range(SETUP_REPS):
            calibrations.append(calibrate())
            with spans.span(f"setup.{i}") as span:
                prepared = workload.setup(spans)
            units.append(("setup", span.duration))
        started = time.perf_counter()
        while (len(outcomes) < MIN_REPS
               or time.perf_counter() - started < seconds):
            calibrations.append(calibrate())
            with spans.span(f"rep.{len(outcomes)}") as span:
                outcome = workload.rep(prepared, spans, workdir)
                with spans.span("check"):
                    failures = workload.check(prepared, outcome)
            units.append(("wall", spans.within(span, engine)))
            outcomes.append((outcome, failures))
        profile = None
        if trace:
            calibrations.append(calibrate())
            profile = cProfile.Profile()
            with spans.span("rep.traced") as span:
                profile.enable()
                try:
                    workload.rep(prepared, spans, workdir, traced=True)
                finally:
                    profile.disable()
            units.append(("traced", spans.within(span, engine)))
        calibrations.append(calibrate())
    factors = [
        2 * REFERENCE_CALIBRATION_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]
    samples: Dict[str, Any] = {
        f"{kind}{suffix}": []
        for kind in ("setup", "wall", "traced")
        for suffix in ("_s", "_raw_s")
    }
    for (kind, raw), factor in zip(units, factors):
        samples[f"{kind}_raw_s"].append(raw)
        samples[f"{kind}_s"].append(raw * factor)
    samples["calibration_s"] = calibrations
    setup_scale = statistics.median(
        factor for (kind, __), factor in zip(units, factors)
        if kind == "setup"
    )

    first = outcomes[0][0]
    digests = [records_digest(outcome.rows) for outcome, __ in outcomes]
    digest = digests[0]
    stable = len(set(digests)) == 1
    pinned = pinned_digest(workload)
    checks: Dict[str, int] = {}
    failed = 0
    for __, failures in outcomes:
        for name, items in failures.items():
            checks[name] = checks.get(name, 0) + len(items)
        failed += len({item for items in failures.values() for item in items})
    attempted = sum(outcome.launched for outcome, __ in outcomes)

    fcts_ms = [fct * 1e3 for fct in workload.fcts(first)]
    end_to_end = {
        "setup_s": statistics.median(samples["setup_s"]),
        "wall_s": statistics.median(samples["wall_s"]),
        "peak_rss_mb": peak_rss_mb(),
        "fct_p50_ms": percentile(fcts_ms, 0.5) if fcts_ms else None,
        "fct_p90_ms": percentile(fcts_ms, 0.9) if fcts_ms else None,
        "failed_frac": failed / attempted,
    }
    # Zero where the workload never enters a layer; profile-only values
    # only when there is a profile.
    per_layer: Dict[str, float] = {
        m.name: 0 for m in PER_LAYER
        if profile is not None or m.name not in PROFILED
    }
    per_layer.update(first.layer)
    for name, span_name in (
        ("topology.build_s", "setup.topology"),
        ("routing.select_s", "setup.routing"),
    ):
        found = [s.duration for s in spans.records if s.name == span_name]
        per_layer[name] = (
            statistics.median(found) * setup_scale if found else 0.0
        )
    if profile is not None:
        overhead = samples["traced_s"][0] / end_to_end["wall_s"]
        per_layer.update(layer_values(pstats.Stats(profile), overhead))
    record = {
        "workload": workload.name,
        "why": workload.why,
        "config": _jsonable(workload.config()),
        "correct": not any(checks.values()) and stable,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "records_digest": digest,
        "digest_stable": stable,
        "records_match": None if pinned is None else pinned == digest,
        "samples": {**samples, "fcts": len(fcts_ms)},
        "end_to_end": {
            m.name: {"value": end_to_end[m.name], "unit": m.unit}
            for m in END_TO_END
        },
        "per_layer": {
            m.name: {"value": per_layer[m.name], "unit": m.unit}
            for m in PER_LAYER
            if m.name in per_layer
        },
    }
    return record, spans


def layer_values(stats: pstats.Stats, overhead: float) -> Dict[str, float]:
    """Per-layer self times, shares and entry points of one profile."""
    own = layers.self_times(stats, SRC, HERE)
    total = sum(own.values())
    values: Dict[str, float] = {
        "trace.self_s": total,
        "trace_overhead": overhead,
    }
    for layer, seconds in own.items():
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.self_share"] = (
            100.0 * seconds / total if total else 0.0
        )
    for name, (fn, field) in ENTRY_POINTS.items():
        calls, cumtime = layers.entry_stats(stats, fn)
        values[name] = calls if field == "calls" else cumtime
    return values


# --- output --------------------------------------------------------------


def print_record(record: Dict[str, Any]) -> None:
    samples = record["samples"]
    print(f"== {record['workload']}: {len(samples['wall_s'])} reps, "
          f"{len(samples['setup_s'])} set-ups, {samples['fcts']} flows ==")
    for m in END_TO_END:
        value = record["end_to_end"][m.name]["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {m.name:<28} {shown:>14} {m.unit:<10} {m.note}")
    for name, entry in record["per_layer"].items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    checks = " ".join(f"{k}={v}" for k, v in record["checks"].items())
    print(f"  checks: {checks} digest_stable={record['digest_stable']} "
          f"records_match={record['records_match']}")


def summary_line(records: Dict[str, Dict[str, Any]], trace: bool) -> str:
    """The closing JSON line: outcome counts plus the metrics BENCHMARK.json lists."""
    table = "per_layer" if trace else "end_to_end"
    wanted = [
        m.name for m in (PER_LAYER if trace else END_TO_END) if m.listed
    ]
    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}:"
        for metric in wanted:
            metrics[prefix + metric] = record[table][metric]
    return json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    })


# --- runs ----------------------------------------------------------------


def run_single(args, stamp: str) -> Dict[str, Dict[str, Any]]:
    workload = workloads.WORKLOADS[args.workload](seed=args.seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    try:
        record, spans = run_workload(
            workload, args.seconds, bool(args.trace), workdir
        )
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        path = RESULTS / f"spans-{workload.name}-seed{args.seed}-{stamp}.jsonl"
        spans.write(path)
        record["spans_file"] = str(path.relative_to(ROOT))
    print_record(record)
    return {workload.name: record}


def run_all(args, stamp: str) -> Dict[str, Dict[str, Any]]:
    """Every workload in its own fresh process, one after another."""
    records = {}
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        out = RESULTS / f"part-{name}-{stamp}.json"
        done = subprocess.run(
            [
                sys.executable, str(HERE / "bench.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ],
            stdout=subprocess.PIPE, text=True, timeout=WORKLOAD_TIMEOUT,
        )
        # Everything but the workload's own summary line, which the
        # combined summary below replaces.
        print(done.stdout.rstrip("\n").rpartition("\n")[0], flush=True)
        try:
            records.update(json.loads(out.read_text())["workloads"])
        except (OSError, ValueError, KeyError):
            raise SystemExit(f"workload {name} produced no result")
        finally:
            out.unlink(missing_ok=True)
    return records


# --- comparison ----------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(metric: Metric, a: Sequence[float], b: Sequence[float]):
    """(verdict, delta, spread) of B against A for one metric.

    ``delta`` and ``spread`` are shares of the median, or absolute for
    absolute metrics; positive ``delta`` means B is worse.
    """
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
    if metric.absolute:
        delta = sign * (mb - ma)
        spread = max(a3 - a1, b3 - b1)
    else:
        if ma:
            delta = sign * (mb - ma) / ma
        else:
            delta = 0.0 if mb == ma else math.inf
        spread = max((a3 - a1) / ma if ma else 0.0,
                     (b3 - b1) / mb if mb else 0.0)
    every_better = all(sign * y < sign * x for x in a for y in b)
    if spread > metric.bound:
        verdict = "better" if every_better else "unresolved"
    elif delta > metric.bound:
        verdict = "worse"
    elif delta < -metric.bound:
        verdict = "better"
    else:
        verdict = "ok"
    return verdict, delta, spread


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    """Print per-workload verdicts of B against A; non-zero if any fails."""
    if not a_paths or not b_paths:
        raise SystemExit("--compare needs files on both sides of --")
    a_runs = [json.loads(pathlib.Path(p).read_text()) for p in a_paths]
    b_runs = [json.loads(pathlib.Path(p).read_text()) for p in b_paths]
    names = [
        name for name in a_runs[0]["workloads"]
        if all(name in run["workloads"] for run in a_runs + b_runs)
    ]
    failing = 0
    print(f"{'workload':<20} {'metric':<12} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'delta':>8} {'bound':>7}  verdict")
    for name in names:
        for m in END_TO_END:
            a = [r["workloads"][name]["end_to_end"][m.name]["value"]
                 for r in a_runs]
            b = [r["workloads"][name]["end_to_end"][m.name]["value"]
                 for r in b_runs]
            if None in a or None in b:
                continue
            verdict, delta, __ = judge(m, a, b)
            failing += verdict in ("worse", "unresolved")
            cells = []
            for values in (a, b):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} "
                             f"[{q1:.6g}, {q3:.6g}]")
            shown = f"{delta:+.4g}" if m.absolute else f"{delta:+.2%}"
            bound = f"{m.bound:g}" if m.absolute else f"{m.bound:.0%}"
            print(f"{name:<20} {m.name:<12} {cells[0]:<36} {cells[1]:<36} "
                  f"{shown:>8} {bound:>7}  {verdict}")
        for m in EXACT:
            a = [r["workloads"][name]["per_layer"].get(m.name)
                 for r in a_runs]
            b = [r["workloads"][name]["per_layer"].get(m.name)
                 for r in b_runs]
            a = [e["value"] for e in a if e is not None]
            b = [e["value"] for e in b if e is not None]
            if a and b and len(set(a + b)) > 1:
                failing += 1
                print(f"{name:<20} {m.name:<28} counts differ: "
                      f"A {sorted(set(a))} B {sorted(set(b))}")
    print(f"{failing} metric(s) worse, unresolved or with differing counts "
          f"across {len(names)} workload(s)")
    return 1 if failing else 0


# --- entry point ---------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(
        description="Core benchmark of the P-Net simulator.",
    )
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run one workload in this process "
                             "(default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the traffic matrix (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="host seconds of timed repetitions per "
                             f"workload (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one profiled repetition and report the "
                             "per-layer metrics")
    parser.add_argument("--out", type=pathlib.Path,
                        help="result file (default: under "
                             "benchmarks/results/core/)")
    parser.add_argument("--compare", nargs="+", metavar="A.json",
                        help="compare result files: --compare A.json ... "
                             "-- B.json ...")
    parser.add_argument("after", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.after and not args.compare:
        parser.error(f"unexpected arguments: {args.after}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(args.compare, args.after)
    scrub_environment()
    stamp = (datetime.datetime.now(datetime.timezone.utc)
             .strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}")
    if args.workload:
        records = run_single(args, stamp)
    else:
        records = run_all(args, stamp)
    name = args.workload or "all"
    out = args.out or RESULTS / f"bench-{name}-seed{args.seed}-{stamp}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "schema": SCHEMA,
        "provenance": provenance(args),
        "workloads": records,
    }, indent=2) + "\n")
    print(summary_line(records, bool(args.trace)))
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
