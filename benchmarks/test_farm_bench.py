"""Benchmark: run-farm dispatch overhead and reassignment latency.

Two costs matter when a sweep leaves one machine: the *dispatch tax*
(launching workers, streaming assignments over the rendezvous socket,
merging results) and the *recovery bill* (how long a SIGKILLed
worker's trial waits before a survivor picks it up and recomputes it).
Both land in ``results/BENCH_farm.json``.  Wall-clock numbers vary
with the machine, so the hard assertions are the portable ones:
results byte-identical to a single-host run, and exactly one
reassignment in the kill drill, run by a second worker.
"""

import os
import pathlib
import pickle
import signal
import threading
import time

from _util import emit_json

from repro.exp.runner import TrialSpec, run_trials
from repro.farm import local_inventory, run_on_farm

REPO = pathlib.Path(__file__).resolve().parent.parent
WORKER_PYTHONPATH = f"{REPO / 'src'}{os.pathsep}{REPO}"

N_TRIALS = 8
SLOW_KEY = ("demo", 0)


def _specs(n=N_TRIALS, wall_pause=0.0):
    specs = []
    for seed in range(n):
        kwargs = {"seed": seed, "n_flows": 2, "size_mb": 0.3}
        if seed == 0 and wall_pause:
            kwargs = {"seed": 0, "n_flows": 6, "wall_pause": wall_pause}
        specs.append(TrialSpec(
            fn="repro.farm.trial:demo_trial",
            key=("demo", seed),
            kwargs=kwargs,
        ))
    return specs


def _farm_env():
    os.environ["PYTHONPATH"] = WORKER_PYTHONPATH
    os.environ["PNET_CACHE"] = "0"
    os.environ.pop("PNET_FARM_INVENTORY", None)


def test_farm_dispatch_and_recovery(benchmark):
    _farm_env()
    specs = _specs()

    # Baseline: the same grid serially in-process.
    started = time.perf_counter()
    single = benchmark.pedantic(
        run_trials, args=(specs,), rounds=1, iterations=1
    )
    single_wall = time.perf_counter() - started

    # Farm: 2 local workers, no faults.
    started = time.perf_counter()
    farmed, stats = run_on_farm(specs, local_inventory(2))
    farm_wall = time.perf_counter() - started
    assert pickle.dumps({k: farmed[k] for k in single}) == \
        pickle.dumps(single)
    waits = stats.dispatch_wait_seconds

    # Kill drill: SIGKILL the worker holding the slow trial; a survivor
    # recomputes it.
    drill_specs = _specs(n=4, wall_pause=2.0)
    slow_workers = []

    def on_assign(worker_id, spec, pid):
        if spec.key != SLOW_KEY:
            return
        slow_workers.append(worker_id)
        if len(slow_workers) == 1:
            timer = threading.Timer(1.0, os.kill, (pid, signal.SIGKILL))
            timer.daemon = True
            timer.start()

    started = time.perf_counter()
    killed, kill_stats = run_on_farm(
        drill_specs, local_inventory(2), on_assign=on_assign,
    )
    drill_wall = time.perf_counter() - started
    assert kill_stats.reassigned == 1
    assert len(slow_workers) == 2 and slow_workers[0] != slow_workers[1]
    drill_single = run_trials(drill_specs)
    assert pickle.dumps({k: killed[k] for k in drill_single}) == \
        pickle.dumps(drill_single)

    emit_json("BENCH_farm", {
        "grid": {
            "n_trials": N_TRIALS,
            "trial_fn": "repro.farm.trial:demo_trial",
            "workers": 2,
            "transport": "local",
        },
        "cpu_count": os.cpu_count(),
        "single_host_wall_seconds": round(single_wall, 4),
        "farm_wall_seconds": round(farm_wall, 4),
        "dispatch_overhead_seconds_per_trial": round(
            max(farm_wall - single_wall, 0.0) / N_TRIALS, 4
        ),
        "dispatch_wait_seconds": {
            "mean": round(sum(waits) / len(waits), 5),
            "max": round(max(waits), 5),
        },
        "kill_drill": {
            "n_trials": len(drill_specs),
            "wall_seconds": round(drill_wall, 4),
            "reassigned": kill_stats.reassigned,
            "reassign_latency_seconds": [
                round(v, 4) for v in kill_stats.reassign_seconds
            ],
            "worker_losses": kill_stats.worker_losses,
        },
    })
