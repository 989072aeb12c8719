"""Figure 6: parallel fat tree throughput under ECMP and multipath.

* **6a** -- all-to-all traffic, ECMP: dense traffic saturates every added
  dataplane (normalised throughput tracks N).
* **6b** -- permutation traffic, ECMP: each flow is hashed onto a single
  plane and path, so added planes barely help.
* **6c** -- permutation traffic, MPTCP + K-shortest-paths for growing K:
  multipath recovers the parallel capacity, and N-plane P-Nets need about
  N times the subflows of the serial network to saturate.

Throughput is the max-concurrent-flow LP optimum over the selected routes,
normalised against the serial low-bandwidth network's ECMP throughput for
6a/6b (like the paper's y-axes) and against the serial line rate for 6c.

The serial high-bandwidth network is the same topology with N-times link
capacity, so its LP optimum is exactly N times the serial-low value for
any fixed route set (LP scaling); we report it that way rather than
re-solving.

The trial grid -- (panel, plane count, seed) -- is expressed as
:class:`~repro.exp.runner.TrialSpec` items and executed by
:func:`~repro.exp.runner.run_trials` (``PNET_JOBS`` workers, merged by
trial key so results are identical at any job count).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.path_selection import EcmpPolicy, KspMultipathPolicy
from repro.exp.common import FatTreeFamily, format_table, get_scale
from repro.exp.runner import TrialSpec, run_trials
from repro.exp.throughput import routed_total_throughput
from repro.traffic.patterns import all_to_all, permutation

#: Per-scale parameters: fat tree radix, plane counts, K sweep, seeds.
PRESETS = {
    "tiny": dict(k=4, planes=(1, 2, 4), ks=(1, 2, 4, 8, 16), seeds=(0,)),
    "small": dict(k=6, planes=(1, 2, 4, 8), ks=(1, 2, 4, 8, 16, 32), seeds=(0,)),
    "full": dict(k=16, planes=(1, 2, 4, 8), ks=(1, 2, 4, 8, 16, 32), seeds=(0, 1, 2, 3, 4)),
}


@dataclass
class Fig6Result:
    """All three panels, keyed by plane count (a, b) or (planes, K) (c)."""

    k: int
    ecmp_all_to_all: Dict[int, float] = field(default_factory=dict)
    ecmp_permutation: Dict[int, float] = field(default_factory=dict)
    multipath: Dict[int, Dict[int, float]] = field(default_factory=dict)
    saturation_k: Dict[int, Optional[int]] = field(default_factory=dict)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _pattern_pairs(pattern: str, hosts: List[str], seed: int):
    if pattern == "all_to_all":
        return all_to_all(hosts)
    return permutation(hosts, random.Random(f"fig6-{seed}"))


def ecmp_trial(k: int, pattern: str, n_planes: int, seed: int) -> float:
    """Panels a/b: one network's ECMP total, normalised vs serial-low."""
    family = FatTreeFamily(k)
    hosts = family.serial_low().hosts
    pairs = _pattern_pairs(pattern, hosts, seed)
    base = family.serial_low()
    pnet = family.parallel(n_planes)
    total_base = routed_total_throughput(
        base, pairs, EcmpPolicy(base, salt=seed)
    )
    total = routed_total_throughput(pnet, pairs, EcmpPolicy(pnet, salt=seed))
    return total / total_base


def multipath_trial(
    k: int, n_planes: int, seed: int, ks: Tuple[int, ...]
) -> Dict[int, float]:
    """Panel c: the K sweep for one (plane count, seed).

    The whole sweep is one trial so the KSP cache computed at the largest
    K (descending order) answers the smaller Ks.
    """
    family = FatTreeFamily(k)
    hosts = family.serial_low().hosts
    pnet = family.parallel(n_planes)
    serial_capacity = family.link_rate * len(hosts)
    series: Dict[int, float] = {}
    for k_paths in sorted(ks, reverse=True):
        pairs = permutation(hosts, random.Random(f"fig6c-{seed}"))
        policy = KspMultipathPolicy(pnet, k=k_paths, seed=seed)
        total = routed_total_throughput(pnet, pairs, policy)
        series[k_paths] = total / serial_capacity
    return series


def run(scale: Optional[str] = None) -> Fig6Result:
    params = PRESETS[get_scale(scale)]
    result = Fig6Result(k=params["k"])

    specs = [
        TrialSpec(
            fn="repro.exp.fig6:ecmp_trial",
            key=("ecmp", pattern, n_planes, seed),
            kwargs=dict(
                k=params["k"], pattern=pattern, n_planes=n_planes, seed=seed
            ),
        )
        for pattern in ("all_to_all", "permutation")
        for n_planes in params["planes"]
        for seed in params["seeds"]
    ] + [
        TrialSpec(
            fn="repro.exp.fig6:multipath_trial",
            key=("multipath", n_planes, seed),
            kwargs=dict(
                k=params["k"],
                n_planes=n_planes,
                seed=seed,
                ks=tuple(params["ks"]),
            ),
        )
        for n_planes in params["planes"]
        for seed in params["seeds"]
    ]
    trials = run_trials(specs)

    for pattern, store in (
        ("all_to_all", result.ecmp_all_to_all),
        ("permutation", result.ecmp_permutation),
    ):
        for n_planes in params["planes"]:
            store[n_planes] = _mean(
                [
                    trials[("ecmp", pattern, n_planes, seed)]
                    for seed in params["seeds"]
                ]
            )

    for n_planes in params["planes"]:
        per_seed = [
            trials[("multipath", n_planes, seed)] for seed in params["seeds"]
        ]
        series: Dict[int, float] = {
            k_paths: _mean([s[k_paths] for s in per_seed])
            for k_paths in sorted(params["ks"], reverse=True)
        }
        result.multipath[n_planes] = series
        result.saturation_k[n_planes] = next(
            (
                k_paths
                for k_paths, value in sorted(series.items())
                if value >= 0.95 * n_planes
            ),
            None,
        )
    return result


def main() -> Fig6Result:
    result = run()
    print(f"Figure 6 (fat tree k={result.k}; normalised throughput)\n")
    planes = sorted(result.ecmp_all_to_all)
    print(
        format_table(
            ["planes", "6a all-to-all ECMP", "6b permutation ECMP",
             "serial-high reference"],
            [
                [n, f"{result.ecmp_all_to_all[n]:.2f}",
                 f"{result.ecmp_permutation[n]:.2f}", n]
                for n in planes
            ],
        )
    )
    print("\n6c: permutation, MPTCP+KSP (normalised to line rate)")
    ks = sorted(next(iter(result.multipath.values())))
    print(
        format_table(
            ["planes \\ K"] + [str(k) for k in ks] + ["saturating K"],
            [
                [n]
                + [f"{result.multipath[n][k]:.2f}" for k in ks]
                + [result.saturation_k[n]]
                for n in sorted(result.multipath)
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
