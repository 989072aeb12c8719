"""Figure 8: Jellyfish throughput with KSP routing and multipath scaling.

* **8a** -- all-to-all with the default 8-way KSP: dense traffic saturates
  the parallel planes.
* **8b** -- permutation with 8-way KSP: the serial default (shown to work
  well on serial expanders by Jellyfish [38]) recovers only part of the
  parallel capacity (~60% in the paper).
* **8c** -- permutation with K swept upward: K ~ 8 * N saturates, like the
  fat tree case.

Heterogeneous and homogeneous parallel Jellyfish behave near-identically
for throughput (the paper plots both); we report both.

Trials: panels a/b run one (plane count, seed) per trial (the serial
baseline and both variants share KSP policies inside it, exactly like the
serial code path); panel c runs one (variant, plane count, seed) K sweep
per trial.  :func:`~repro.exp.runner.run_trials` fans them out over
``PNET_JOBS`` workers and merges by key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.exp.runner import TrialSpec, run_trials
from repro.exp.throughput import routed_total_throughput
from repro.traffic.patterns import all_to_all, permutation

PRESETS = {
    "tiny": dict(
        switches=12, degree=5, hosts_per=2,
        planes=(1, 2, 4), ks=(1, 2, 4, 8, 16), seeds=(0,),
    ),
    "small": dict(
        switches=14, degree=5, hosts_per=2,
        planes=(1, 2, 4), ks=(1, 2, 4, 8, 16, 32), seeds=(0,),
    ),
    "full": dict(
        switches=256, degree=10, hosts_per=4,
        planes=(1, 2, 4, 8), ks=(1, 2, 4, 8, 16, 32), seeds=(0, 1, 2),
    ),
}

DEFAULT_KSP = 8  # Jellyfish's recommended serial setting

VARIANTS = ("homogeneous", "heterogeneous")


@dataclass
class Fig8Result:
    n_hosts: int
    #: (variant, n_planes) -> normalised total throughput at K=8.
    ksp8_all_to_all: Dict[Tuple[str, int], float] = field(default_factory=dict)
    ksp8_permutation: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: (variant, n_planes) -> {K -> normalised-to-capacity throughput}.
    multipath: Dict[Tuple[str, int], Dict[int, float]] = field(default_factory=dict)
    saturation_k: Dict[Tuple[str, int], Optional[int]] = field(default_factory=dict)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _family(params: Dict) -> JellyfishFamily:
    return JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )


def _variants(family: JellyfishFamily, n_planes: int, seed: int):
    return (
        ("homogeneous", family.parallel_homogeneous(n_planes, seed=seed)),
        ("heterogeneous", family.parallel_heterogeneous(n_planes, seed=seed)),
    )


def panel_ab_trial(
    switches: int, degree: int, hosts_per: int, n_planes: int, seed: int
) -> Dict[Tuple[str, str], float]:
    """Panels a/b totals for one seed: {(label, pattern) -> total bits/s}.

    One trial covers the serial baseline and both parallel variants so
    each network's KSP policy is shared across the two patterns, as in
    the serial implementation.
    """
    family = JellyfishFamily(switches, degree, hosts_per)
    hosts = family.serial_low().hosts
    base = family.serial_low(seed=seed * 1000)
    nets = [("serial", base)] + list(_variants(family, n_planes, seed))
    patterns = (
        ("all_to_all", all_to_all(hosts)),
        ("permutation", permutation(hosts, random.Random(f"fig8-{seed}"))),
    )
    totals: Dict[Tuple[str, str], float] = {}
    for label, pnet in nets:
        policy = KspMultipathPolicy(pnet, k=DEFAULT_KSP, seed=seed)
        for pattern_name, pairs in patterns:
            totals[(label, pattern_name)] = routed_total_throughput(
                pnet, pairs, policy
            )
    return totals


def panel_c_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    variant: str,
    n_planes: int,
    seed: int,
    ks: Tuple[int, ...],
) -> Dict[int, float]:
    """Panel c: one (variant, plane count, seed) K sweep.

    Descending K keeps the KSP cache computed at the largest K serving
    all smaller Ks, mirroring the serial implementation.
    """
    family = JellyfishFamily(switches, degree, hosts_per)
    hosts = family.serial_low().hosts
    serial_capacity = family.link_rate * len(hosts)
    pnet = dict(_variants(family, n_planes, seed))[variant]
    series: Dict[int, float] = {}
    for k_paths in sorted(ks, reverse=True):
        pairs = permutation(hosts, random.Random(f"fig8c-{seed}"))
        total = routed_total_throughput(
            pnet, pairs, KspMultipathPolicy(pnet, k=k_paths, seed=seed)
        )
        series[k_paths] = total / serial_capacity
    return series


def run(scale: Optional[str] = None) -> Fig8Result:
    params = PRESETS[get_scale(scale)]
    family = _family(params)
    n_hosts = family.n_hosts
    result = Fig8Result(n_hosts=n_hosts)
    net_kwargs = dict(
        switches=params["switches"],
        degree=params["degree"],
        hosts_per=params["hosts_per"],
    )

    specs = [
        TrialSpec(
            fn="repro.exp.fig8:panel_ab_trial",
            key=("ab", n_planes, seed),
            kwargs=dict(n_planes=n_planes, seed=seed, **net_kwargs),
        )
        for n_planes in params["planes"]
        for seed in params["seeds"]
    ] + [
        TrialSpec(
            fn="repro.exp.fig8:panel_c_trial",
            key=("c", variant, n_planes, seed),
            kwargs=dict(
                variant=variant,
                n_planes=n_planes,
                seed=seed,
                ks=tuple(params["ks"]),
                **net_kwargs,
            ),
        )
        for n_planes in params["planes"]
        for variant in VARIANTS
        for seed in params["seeds"]
    ]
    trials = run_trials(specs)

    # Panels a & b: normalise each variant against the same-seed serial
    # baseline, then average over seeds.
    for n_planes in params["planes"]:
        for variant in VARIANTS:
            for pattern_name, store in (
                ("all_to_all", result.ksp8_all_to_all),
                ("permutation", result.ksp8_permutation),
            ):
                store[(variant, n_planes)] = _mean(
                    [
                        trials[("ab", n_planes, seed)][(variant, pattern_name)]
                        / trials[("ab", n_planes, seed)][("serial", pattern_name)]
                        for seed in params["seeds"]
                    ]
                )

    # Panel c: K sweep means over seeds.
    for n_planes in params["planes"]:
        for variant in VARIANTS:
            per_seed = [
                trials[("c", variant, n_planes, seed)]
                for seed in params["seeds"]
            ]
            series: Dict[int, float] = {
                k_paths: _mean([s[k_paths] for s in per_seed])
                for k_paths in sorted(params["ks"], reverse=True)
            }
            key = (variant, n_planes)
            result.multipath[key] = series
            result.saturation_k[key] = next(
                (
                    k_paths
                    for k_paths, value in sorted(series.items())
                    if value >= 0.9 * n_planes
                ),
                None,
            )
    return result


def main() -> Fig8Result:
    result = run()
    print(f"Figure 8 (Jellyfish, {result.n_hosts} hosts)\n")
    keys = sorted(result.ksp8_all_to_all)
    print(
        format_table(
            ["variant", "planes", "8a all-to-all 8-KSP", "8b permutation 8-KSP"],
            [
                [variant, n,
                 f"{result.ksp8_all_to_all[(variant, n)]:.2f}",
                 f"{result.ksp8_permutation[(variant, n)]:.2f}"]
                for variant, n in keys
            ],
        )
    )
    print("\n8c: permutation, K sweep (normalised to serial capacity)")
    ks = sorted(next(iter(result.multipath.values())))
    print(
        format_table(
            ["variant", "planes"] + [f"K={k}" for k in ks] + ["saturating K"],
            [
                [variant, n]
                + [f"{result.multipath[(variant, n)][k]:.2f}" for k in ks]
                + [result.saturation_k[(variant, n)]]
                for variant, n in sorted(result.multipath)
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
