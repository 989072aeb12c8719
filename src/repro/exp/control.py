"""Extension experiment: online adaptive path control (``repro.control``).

Sparse traffic is where a static subflow placement leaves capacity on
the table (Figure 6a): with K subflows chosen from N > K planes per
flow, collisions concentrate several flows on the same planes while
others sit idle -- and nothing in the static scheme ever moves them.
The control plane's answer is measurement-driven resteering: sample
per-subflow progress and per-plane load every control interval
and let a :class:`~repro.control.ResteerPolicy` shift the placement
while the flows run.

This experiment runs a sparse K=2-of-4-planes KSP permutation four
ways on a heterogeneous Jellyfish P-Net:

* **static-ksp** -- the collision-prone baseline (control off);
* **ecmp-reshuffle** -- re-hash flows off overloaded planes;
* **flowlet** -- idle-gap triggered re-hashing;
* **load-aware** -- hysteresis-guarded migration of the slowest
  subflow onto the least-loaded plane.

A second arm repeats static vs load-aware under a scheduled whole-plane
outage (:func:`repro.faults.plane_outage`): the injector resteers flows
off the dead plane, piling them onto the survivors, and the control
loop is what rebalances the pile-up afterwards, reading the routing
view (one :class:`~repro.core.pnet.PNet`) the injector repairs.

Expected: load-aware recovers part of the collision losses on at least
one seed (the ``best`` entry pins the strongest matrix, which
``benchmarks/test_control.py`` records in ``BENCH_control.json``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stats import summarize
from repro.api import build_network, run_trial
from repro.control import (
    Controller,
    EcmpReshufflePolicy,
    FlowletPolicy,
    LoadAwarePolicy,
)
from repro.core.failures import FailureAwareSelector
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.faults.generators import plane_outage
from repro.faults.injector import FaultInjector
from repro.traffic.patterns import permutation
from repro.units import GB, MB

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4, k=2,
        active=6, flow_bytes=200 * MB, interval=1e-3, hysteresis=1.5,
        outage_at=2e-3, outage=5e-3, seeds=(0, 1, 2),
    ),
    "small": dict(
        switches=16, degree=5, hosts_per=3, n_planes=4, k=2,
        active=10, flow_bytes=500 * MB, interval=1e-3, hysteresis=1.5,
        outage_at=5e-3, outage=1e-2, seeds=(0, 1, 2, 3),
    ),
    "full": dict(
        switches=40, degree=7, hosts_per=4, n_planes=4, k=2,
        active=24, flow_bytes=1 * GB, interval=1e-3, hysteresis=1.5,
        outage_at=1e-2, outage=2e-2, seeds=(0, 1, 2, 3, 4),
    ),
}

#: Adaptive variants of the healthy arm, in report order.
POLICY_VARIANTS = ("ecmp-reshuffle", "flowlet", "load-aware")


@dataclass
class ControlResult:
    n_hosts: int
    n_planes: int
    #: variant -> mean FCT (seconds) over all seeds.
    mean_fct: Dict[str, float] = field(default_factory=dict)
    #: variant -> mean-FCT speedup vs its static baseline.
    speedup: Dict[str, float] = field(default_factory=dict)
    #: variant -> per-seed speedup vs the same-seed static run.
    per_seed: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: variant -> summed controller stats over all seeds.
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: The strongest load-aware matrix: seed + speedup (the skewed
    #: matrix pinned in BENCH_control.json).
    best: Dict[str, Any] = field(default_factory=dict)


def _policy(variant: str, params: Dict[str, Any], seed: int):
    if variant == "ecmp-reshuffle":
        policy = EcmpReshufflePolicy(seed=seed)
    elif variant == "flowlet":
        policy = FlowletPolicy(seed=seed)
    elif variant == "load-aware":
        policy = LoadAwarePolicy(
            seed=seed, hysteresis=params["hysteresis"]
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return policy


def _sparse_specs(pnet, params, seed: int) -> List[FlowSpec]:
    """A sparse KSP permutation: few flows, K of N planes each."""
    pairs = permutation(
        pnet.hosts, random.Random(f"control-{seed}")
    )[: params["active"]]
    ksp = KspMultipathPolicy(pnet, k=params["k"], seed=seed)
    return [
        FlowSpec(
            src=src, dst=dst, size=params["flow_bytes"],
            paths=ksp.select(src, dst, flow_id),
        )
        for flow_id, (src, dst) in enumerate(pairs)
    ]


def _run_one(
    pnet, specs, params, seed: int,
    variant: Optional[str],
    faulted: bool = False,
) -> Tuple[float, Optional[Dict[str, int]]]:
    """(mean FCT, controller stats) for one (matrix, variant) run."""
    sim = build_network(pnet.planes, kind="fluid", slow_start=False)
    if faulted:
        schedule = plane_outage(
            pnet, random.Random(seed),
            at=params["outage_at"], outage=params["outage"],
        )
        selector = FailureAwareSelector(
            KspMultipathPolicy(pnet, k=params["k"], seed=seed)
        )
        injector = FaultInjector(pnet, schedule, selector=selector)
        injector.attach(sim)
    control = None if variant is None else Controller(
        _policy(variant, params, seed), interval=params["interval"],
        pnet=pnet,
    )
    result = run_trial(sim, specs, control=control)
    mean = summarize([r.fct for r in result.records]).mean
    meta = result.meta.get("control")
    return mean, None if meta is None else meta["stats"]


def run(scale: Optional[str] = None) -> ControlResult:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = ControlResult(
        n_hosts=family.n_hosts, n_planes=params["n_planes"]
    )
    samples: Dict[str, List[float]] = {}
    totals: Dict[str, Dict[str, int]] = {}

    for seed in params["seeds"]:
        pnet = family.parallel_heterogeneous(
            params["n_planes"], seed=seed
        )
        specs = _sparse_specs(pnet, params, seed)

        static, __ = _run_one(pnet, specs, params, seed, variant=None)
        samples.setdefault("static-ksp", []).append(static)
        for variant in POLICY_VARIANTS:
            mean, stats = _run_one(pnet, specs, params, seed, variant)
            samples.setdefault(variant, []).append(mean)
            _accumulate(totals, variant, stats)
            result.per_seed.setdefault(variant, {})[seed] = static / mean

        faulted_static, __ = _run_one(
            pnet, specs, params, seed, variant=None, faulted=True
        )
        samples.setdefault("static-ksp+outage", []).append(faulted_static)
        mean, stats = _run_one(
            pnet, specs, params, seed, "load-aware", faulted=True
        )
        samples.setdefault("load-aware+outage", []).append(mean)
        _accumulate(totals, "load-aware+outage", stats)
        result.per_seed.setdefault("load-aware+outage", {})[seed] = (
            faulted_static / mean
        )

    for variant, values in samples.items():
        result.mean_fct[variant] = sum(values) / len(values)
    for variant in POLICY_VARIANTS:
        result.speedup[variant] = (
            result.mean_fct["static-ksp"] / result.mean_fct[variant]
        )
    result.speedup["load-aware+outage"] = (
        result.mean_fct["static-ksp+outage"]
        / result.mean_fct["load-aware+outage"]
    )
    result.stats = totals

    best_seed = max(
        result.per_seed["load-aware"],
        key=lambda s: (result.per_seed["load-aware"][s], -s),
    )
    result.best = {
        "seed": best_seed,
        "speedup": result.per_seed["load-aware"][best_seed],
    }
    return result


def _accumulate(totals, variant, stats) -> None:
    bucket = totals.setdefault(variant, {})
    for key, value in (stats or {}).items():
        bucket[key] = bucket.get(key, 0) + value


def main() -> ControlResult:
    result = run()
    print(
        f"Adaptive control plane (repro.control extension), "
        f"{result.n_hosts} hosts x {result.n_planes} planes, "
        f"sparse KSP permutation\n"
    )
    rows = []
    for variant in (
        "static-ksp", *POLICY_VARIANTS,
        "static-ksp+outage", "load-aware+outage",
    ):
        stats = result.stats.get(variant, {})
        rows.append([
            variant,
            f"{result.mean_fct[variant] * 1e3:.3f}",
            f"{result.speedup.get(variant, 1.0):.3f}",
            str(stats.get("decisions", 0)),
            str(stats.get("applied", 0)),
        ])
    print(format_table(
        ["variant", "mean FCT (ms)", "speedup", "decisions", "applied"],
        rows,
    ))
    print(
        f"\nbest load-aware matrix: seed {result.best['seed']} "
        f"(speedup {result.best['speedup']:.3f})"
    )
    return result


if __name__ == "__main__":
    main()
