"""Preemptible experiments end to end: checkpoint, die, resume, match.

Two layers, same guarantee:

1. **Live simulator** -- a degradation run (fluid simulator + fault
   injector mid-outage) is abandoned halfway through its horizon;
   :func:`repro.exp.degradation.resume_faulted` finishes it from the
   newest on-disk snapshot and the curve comes out byte-identical to a
   run that never stopped.

2. **Sweep** -- a trial grid stores each finished trial in the
   artifact cache; rerun on the same cache, the full sweep computes
   only what a "preempted" subset run left undone.

Run it:  PYTHONPATH=src python examples/resumable_sweep.py
"""

import tempfile

from repro.ckpt.store import list_checkpoints
from repro.config import current, use
from repro.exp.degradation import PRESETS, resume_faulted, run_faulted
from repro.exp.runner import TrialSpec, last_stats, run_trials

PARAMS = dict(PRESETS["tiny"], chaos_seed=7)


def live_simulator_demo() -> bool:
    golden = run_faulted(**PARAMS)
    with tempfile.TemporaryDirectory() as root:
        # Snapshot every 0.1 simulated seconds; "preempt" at t=0.25 --
        # inside the plane outage, so the injector's pending restore
        # event and the flows' rerouted paths ride in the checkpoint.
        run_faulted(
            **PARAMS, checkpoint_dir=root, checkpoint_every=0.1,
            stop_after=0.25,
        )
        n_snapshots = len(list_checkpoints(root, valid_only=True))
        resumed = resume_faulted(root)
    identical = (
        resumed["samples"] == golden["samples"]
        and resumed["stats"] == golden["stats"]
    )
    print(
        f"live simulator: abandoned at t=0.25 with {n_snapshots} "
        f"snapshots, resumed to t={PARAMS['duration']}"
    )
    print(f"  min fraction {resumed['stats']['min_fraction']:.3f}, "
          f"final {resumed['stats']['final_fraction']:.3f}")
    return identical


def sweep_demo() -> bool:
    def spec(label, with_faults):
        return TrialSpec(
            fn="repro.exp.degradation:degradation_trial",
            key=(label,),
            kwargs=dict(
                k=PARAMS["k"], n_planes=PARAMS["n_planes"],
                chaos_seed=PARAMS["chaos_seed"],
                outage_at=PARAMS["outage_at"], outage=PARAMS["outage"],
                duration=PARAMS["duration"],
                sample_period=PARAMS["sample_period"],
                with_faults=with_faults,
            ),
        )

    grid = [spec("faulted", True), spec("control", False)]
    with tempfile.TemporaryDirectory() as root:
        with use(current(cache=True, cache_dir=root)):
            # The "preempted" run only got through the first trial...
            run_trials(grid[:1])
            # ...the rerun on the same cache computes only the rest.
            results = run_trials(grid)
    stats = last_stats()
    print(
        f"sweep: {stats.trial_cache_hits} trial(s) answered from the "
        f"cache, {len(grid) - stats.trial_cache_hits} computed fresh"
    )
    curves_ok = (
        results[("faulted",)]["stats"]["final_fraction"] == 1.0
        and results[("control",)]["stats"]["min_fraction"] == 1.0
    )
    return stats.trial_cache_hits == 1 and curves_ok


def main() -> None:
    ok = live_simulator_demo() and sweep_demo()
    print(f"preempted runs resumed byte-identically: {ok}")


if __name__ == "__main__":
    main()
