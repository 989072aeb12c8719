"""Run-farm orchestration end to end: dispatch, kill a worker, rerun.

Three acts, one guarantee (results byte-identical to a single-host
run, whatever the farm does):

1. **Dispatch** -- a demo trial grid runs across two local-transport
   workers from a declarative inventory; the merged result set matches
   an in-process ``run_trials`` of the same grid.

2. **Preemption** -- the worker holding a slow trial is SIGKILLed
   mid-trial; the dispatcher reassigns the trial once, the survivor
   recomputes it from scratch, and the merged results still match.

3. **Rerun** -- the dispatcher stores every farm result in its own
   trial cache, so rerunning the sweep on one host answers every trial
   from it, even though the workers cache nothing (a killed farm sweep
   resumes the same way).

Run it:  PYTHONPATH=src python examples/farm_sweep.py
"""

import os
import pathlib
import pickle
import signal
import tempfile
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
# Workers are fresh interpreters; they need src/ importable and must
# recompute (not cache-hit) so the dispatch path is actually exercised.
os.environ["PYTHONPATH"] = str(REPO / "src")
os.environ.setdefault("PNET_CACHE", "0")
os.environ.pop("PNET_FARM_INVENTORY", None)

from repro.config import current, use  # noqa: E402
from repro.exp.runner import TrialSpec, last_stats, run_trials  # noqa: E402
from repro.farm import Inventory, local_inventory, run_on_farm  # noqa: E402

SLOW_KEY = ("demo", 0)


def _grid(wall_pause=0.0):
    specs = [TrialSpec(
        fn="repro.farm.trial:demo_trial",
        key=SLOW_KEY,
        kwargs={"seed": 0, "n_flows": 6, "wall_pause": wall_pause},
    )]
    specs += [
        TrialSpec(
            fn="repro.farm.trial:demo_trial",
            key=("demo", seed),
            kwargs={"seed": seed, "n_flows": 2, "size_mb": 0.3},
        )
        for seed in (1, 2, 3)
    ]
    return specs


def dispatch_demo() -> bool:
    # The same inventory could come from a YAML/JSON file
    # (``--inventory`` / $PNET_FARM_INVENTORY); here it is programmatic.
    inventory = Inventory.from_data({
        "hosts": [{"name": "laptop", "slots": 2, "transport": "local"}],
    })
    specs = _grid()
    farmed, stats = run_on_farm(specs, inventory)
    single = run_trials(specs)
    identical = pickle.dumps({k: farmed[k] for k in single}) \
        == pickle.dumps(single)
    print(
        f"dispatch: {stats.completed} trials over {stats.n_workers} "
        f"workers on {stats.n_hosts} host(s), "
        f"byte-identical to single-host: {identical}"
    )
    return identical


def preemption_demo() -> bool:
    specs = _grid(wall_pause=2.0)
    state = {"fired": False}
    slow_workers = []

    def on_assign(worker_id, spec, pid):
        # Act as the preemptor: SIGKILL whichever worker draws the
        # slow trial, one second into it.
        if spec.key != SLOW_KEY:
            return
        slow_workers.append(worker_id)
        if not state["fired"]:
            state["fired"] = True
            timer = threading.Timer(1.0, os.kill, (pid, signal.SIGKILL))
            timer.daemon = True
            timer.start()

    results, stats = run_on_farm(
        specs, local_inventory(2), on_assign=on_assign,
    )
    single = run_trials(specs)
    identical = pickle.dumps({k: results[k] for k in single}) \
        == pickle.dumps(single)
    print(
        f"preemption: {stats.reassigned} trial reassigned after "
        f"{stats.worker_losses[0] if stats.worker_losses else '?'}, "
        f"recomputed on {slow_workers[-1]}, byte-identical: {identical}"
    )
    return (
        identical
        and stats.reassigned == 1
        and len(slow_workers) == 2
        and slow_workers[0] != slow_workers[1]
    )


def rerun_demo() -> bool:
    specs = _grid()
    with tempfile.TemporaryDirectory() as root:
        with use(current(cache=True, cache_dir=root)):
            # The workers run with their cache off: only the
            # dispatcher's own cache records the results.
            farmed = run_trials(
                specs, farm=local_inventory(2, env={"PNET_CACHE": "0"}),
            )
            rerun = run_trials(specs)
    stats = last_stats()
    identical = pickle.dumps(rerun) == pickle.dumps(farmed)
    print(
        f"rerun: {stats.trial_cache_hits} of {stats.n_trials} trials "
        f"answered from the dispatcher's cache on one host, "
        f"byte-identical: {identical}"
    )
    return (
        identical
        and stats.trial_cache_hits == len(specs)
        and stats.farm_workers == 0
    )


def main() -> None:
    ok = dispatch_demo() and preemption_demo() and rerun_demo()
    print(f"farm results byte-identical at every host/worker count: {ok}")


if __name__ == "__main__":
    main()
