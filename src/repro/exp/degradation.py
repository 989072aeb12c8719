"""Graceful degradation under a whole-plane outage (paper section 3.4).

"Hosts can quickly detect individual dataplane failures via link status
and avoid using the broken dataplane(s), allowing graceful performance
degradation": with N planes, losing one should cost 1/N of the
aggregate throughput -- not connectivity -- and full throughput should
return when the plane comes back.

The experiment runs long-lived ToR-local pair traffic (each host
exchanges with a neighbour under its own ToR, so every flow is
bottlenecked by its own host uplinks and the healthy network sits at
exactly 1.0 -- no core collisions blurring the curve) on the fluid
simulator with one MPTCP subflow per plane, injects a scheduled
plane-down/plane-up via :class:`repro.faults.FaultInjector`, and
samples the aggregate delivery rate (normalised by the healthy-network
rate).  The expected curve on a 2-plane network: 1.0 until the outage,
0.5 while degraded, back to 1.0 after the restore-and-rebalance.  A
control run with no faults pins the normalisation.

Degradation telemetry (surviving-capacity gauge, per-plane live-link
gauges, reroute-latency histogram, stranded/resteered counters) flows
through :mod:`repro.obs`; the ``python -m repro faults run`` CLI
exposes the same run with ``--metrics-out``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ckpt.rng import RngBundle
from repro.core.failures import FailureAwareSelector
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import FatTreeFamily, format_table, get_scale
from repro.exp.runner import TrialSpec, run_trials
from repro.faults.generators import plane_outage
from repro.faults.injector import FaultInjector, surviving_capacity
from repro.faults.schedule import FaultSchedule
from repro.api import build_network
from repro.obs import Registry

#: Bytes per long-lived flow: large enough that no flow completes
#: within any preset's horizon (the run measures rates, not FCTs).
ELEPHANT_BYTES = 1e15

PRESETS = {
    "tiny": dict(
        k=4, n_planes=2, outage_at=0.1, outage=0.2,
        duration=0.5, sample_period=0.025,
    ),
    "small": dict(
        k=4, n_planes=2, outage_at=0.2, outage=0.4,
        duration=1.0, sample_period=0.02,
    ),
    "full": dict(
        k=8, n_planes=2, outage_at=0.2, outage=0.4,
        duration=1.0, sample_period=0.02,
    ),
}


@dataclass
class DegradationResult:
    n_hosts: int
    n_planes: int
    chaos_seed: int
    #: run label ("faulted" / "control") -> [(t, normalised rate)].
    curves: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    #: run label -> scalar outcome metrics.
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _tor_local_pairs(hosts: List[str]) -> List[Tuple[str, str]]:
    """Mutual pairs of adjacent hosts (same ToR on a fat tree).

    Each host sends to and receives from its neighbour, so every flow's
    bottleneck is a host uplink -- the healthy aggregate hits the full
    ``hosts * planes * link_rate`` exactly, making plane loss read
    directly off the curve as (N-1)/N.
    """
    if len(hosts) % 2:
        raise ValueError("need an even host count for mutual pairs")
    pairs: List[Tuple[str, str]] = []
    for i in range(0, len(hosts), 2):
        pairs.append((hosts[i], hosts[i + 1]))
        pairs.append((hosts[i + 1], hosts[i]))
    return pairs


def _build(k: int, n_planes: int, seed: int):
    """(pnet, selector, flow paths per host pair) for one run."""
    family = FatTreeFamily(k)
    pnet = family.parallel(n_planes)
    policy = KspMultipathPolicy(pnet, k=n_planes, seed=seed)
    selector = FailureAwareSelector(policy)
    return pnet, selector


class _RateSampler:
    """Self-rescheduling aggregate-rate sampler.

    A class instance, not a closure: pending sample timers sit in the
    simulator's heap, and :mod:`repro.ckpt` pickles the whole loop --
    closures don't pickle, this does, and its accumulated ``samples``
    ride along in the same graph.
    """

    def __init__(self, sim, baseline, sample_period, duration):
        self.sim = sim
        self.baseline = baseline
        self.sample_period = sample_period
        self.duration = duration
        self.samples: List[Tuple[float, float]] = []

    def __call__(self) -> None:
        self.samples.append(
            (self.sim.now, self.sim.aggregate_rate() / self.baseline)
        )
        if self.sim.now + self.sample_period <= self.duration + 1e-12:
            self.sim.schedule(self.sim.now + self.sample_period, self)


def run_faulted(
    k: int,
    n_planes: int,
    chaos_seed: int,
    outage_at: float,
    outage: float,
    duration: float,
    sample_period: float,
    schedule: Optional[FaultSchedule] = None,
    obs=None,
    seed: int = 0,
    checkpoint_dir=None,
    checkpoint_every: Optional[float] = None,
    stop_after: Optional[float] = None,
) -> Dict[str, object]:
    """One degradation run; returns samples plus outcome stats.

    With ``schedule=None`` a plane outage is generated from
    ``chaos_seed`` (the CLI's ``--schedule`` passes an explicit one).
    An empty schedule is the no-fault control.

    With ``checkpoint_dir`` and ``checkpoint_every`` (simulated
    seconds) the run snapshots the live simulator -- injector schedule
    position, sampler, and RNG bundle included -- and
    :func:`resume_faulted` finishes an interrupted run with output
    identical to this function never having stopped.  ``stop_after``
    abandons the run at that simulated time (simulated preemption: the
    sampler still carries the full ``duration``, so a later resume
    finishes the whole run).
    """
    pnet, selector = _build(k, n_planes, seed)
    # One bundle owns every random stream of the run; seeding the chaos
    # stream explicitly keeps the generated schedule byte-identical to
    # the historic random.Random(chaos_seed) sequence.
    rng = RngBundle(chaos_seed)
    if schedule is None:
        schedule = plane_outage(
            pnet, rng.stream("faults.chaos", seed=chaos_seed),
            at=outage_at, outage=outage,
        )
    registry = obs if obs is not None else Registry()
    sim = build_network(pnet.planes, kind="fluid", slow_start=False,
                        obs=registry)
    injector = FaultInjector(pnet, schedule, selector=selector, obs=registry)
    injector.attach(sim)

    hosts = pnet.hosts
    pairs = _tor_local_pairs(hosts)
    for flow_id, (src, dst) in enumerate(pairs):
        sim.add_flow(spec=FlowSpec(
            src=src, dst=dst, size=ELEPHANT_BYTES,
            paths=selector.select(src, dst, flow_id),
        ))

    # Healthy aggregate: every host drives all its plane uplinks.
    from repro.units import DEFAULT_LINK_RATE

    baseline = len(hosts) * n_planes * DEFAULT_LINK_RATE
    sampler = _RateSampler(sim, baseline, sample_period, duration)
    # Offset by half a period so samples never land on an event instant
    # (rates at an event time are ambiguous: before or after?).
    sim.schedule(sample_period / 2, sampler)
    horizon = (
        duration if stop_after is None else min(duration, stop_after)
    )
    if checkpoint_every is not None:
        from repro.ckpt import run_checkpointed

        run_checkpointed(
            sim, checkpoint_dir, checkpoint_every, until=horizon,
            injector=injector, rng=rng,
            extra={"sampler": sampler, "pnet": pnet},
            meta={"scenario": "degradation"},
        )
    else:
        sim.run(until=horizon)
    return _faulted_output(sampler.samples, injector, pnet, registry)


def resume_faulted(checkpoint_dir) -> Dict[str, object]:
    """Finish an interrupted :func:`run_faulted` from its newest
    checkpoint; the returned samples and stats match an uninterrupted
    run exactly (same values, same schedule position, same reroutes)."""
    from repro.ckpt import restore

    checkpoint = restore(checkpoint_dir)
    sim = checkpoint.network
    sampler = checkpoint.extra["sampler"]
    pnet = checkpoint.extra["pnet"]
    sim.run(until=sampler.duration)
    return _faulted_output(
        sampler.samples, checkpoint.injector, pnet, sim.obs
    )


def _faulted_output(samples, injector, pnet, registry) -> Dict[str, object]:
    reroutes = registry.histogram("faults.reroute_seconds").values
    stats: Dict[str, float] = {
        "events_applied": injector.stats.events_applied,
        "links_failed": injector.stats.links_failed,
        "links_restored": injector.stats.links_restored,
        "flows_resteered": injector.stats.flows_resteered,
        "flows_stranded": injector.stats.flows_stranded,
        "routes_repaired": injector.stats.routes_repaired,
        "routes_reenumerated": injector.stats.routes_reenumerated,
        "min_fraction": min((f for __, f in samples), default=0.0),
        "final_fraction": samples[-1][1] if samples else 0.0,
        "surviving_capacity_end": surviving_capacity(pnet.planes),
        "reroute_count": float(len(reroutes)),
        "reroute_max_s": max(reroutes) if reroutes else 0.0,
    }
    return {"samples": samples, "stats": stats}


def degradation_trial(
    k: int,
    n_planes: int,
    chaos_seed: int,
    outage_at: float,
    outage: float,
    duration: float,
    sample_period: float,
    with_faults: bool = True,
    seed: int = 0,
) -> Dict[str, object]:
    """Picklable trial: faulted run, or the no-fault control."""
    return run_faulted(
        k=k,
        n_planes=n_planes,
        chaos_seed=chaos_seed,
        outage_at=outage_at,
        outage=outage,
        duration=duration,
        sample_period=sample_period,
        schedule=None if with_faults else FaultSchedule([]),
        seed=seed,
    )


def run(scale: Optional[str] = None, chaos_seed: int = 7) -> DegradationResult:
    params = PRESETS[get_scale(scale)]
    family = FatTreeFamily(params["k"])
    result = DegradationResult(
        n_hosts=family.n_hosts,
        n_planes=params["n_planes"],
        chaos_seed=chaos_seed,
    )
    specs = [
        TrialSpec(
            fn="repro.exp.degradation:degradation_trial",
            key=(label,),
            kwargs=dict(
                k=params["k"],
                n_planes=params["n_planes"],
                chaos_seed=chaos_seed,
                outage_at=params["outage_at"],
                outage=params["outage"],
                duration=params["duration"],
                sample_period=params["sample_period"],
                with_faults=with_faults,
            ),
        )
        for label, with_faults in (("faulted", True), ("control", False))
    ]
    trials = run_trials(specs)
    for (label,), trial in trials.items():
        result.curves[label] = trial["samples"]
        result.stats[label] = trial["stats"]
    return result


def main() -> DegradationResult:
    result = run()
    print(
        f"Degradation under a plane outage "
        f"({result.n_hosts} hosts, {result.n_planes} planes, "
        f"chaos seed {result.chaos_seed})\n"
    )
    rows = [
        [f"{t:.3f}", f"{faulted:.3f}", f"{control:.3f}"]
        for (t, faulted), (__, control) in zip(
            result.curves["faulted"], result.curves["control"]
        )
    ]
    print(format_table(["t (s)", "faulted", "control"], rows))
    stats = result.stats["faulted"]
    print(
        f"\nmin fraction {stats['min_fraction']:.3f}  "
        f"final fraction {stats['final_fraction']:.3f}  "
        f"resteered {int(stats['flows_resteered'])}  "
        f"stranded {int(stats['flows_stranded'])}  "
        f"surviving capacity at end "
        f"{stats['surviving_capacity_end']:.3f}"
    )
    return result


if __name__ == "__main__":
    main()
