"""Extension experiment: expander families as heterogeneous P-Net planes.

Paper section 3.2 names two expander constructions for heterogeneous
planes: random (Jellyfish [38]) and pseudorandom (Xpander [42]).  This
experiment checks that the P-Net benefits are a property of *expanders in
general*, not of Jellyfish specifically, by comparing the two families at
matched size and degree on the metrics the heterogeneity claims rest on:

* best-path (min over planes) hop count distribution -- drives the RPC
  latency win (Figure 10);
* ideal rack-level all-to-all throughput vs the serial high-bandwidth
  equivalent -- the Figure 7 advantage;
* hop inflation under 30% random link failures -- the Figure 14 story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import random

from repro.analysis.hops import average_min_hop_count
from repro.core.pnet import PNet
from repro.exp.common import format_table, get_scale
from repro.lp.ideal import ideal_throughput, merge_parallel_with_rack_sources
from repro.topology import ParallelTopology, build_jellyfish, build_xpander
from repro.traffic.patterns import rack_level_all_to_all

#: Xpander: (d+1) * lift^n switches of network degree d.
#: Jellyfish is built to the exact same switch count and degree.
PRESETS = {
    # d=4 -> 5 * 3 = 15 switches.
    "tiny": dict(degree=4, lifts=1, lift_factor=3, hosts_per=2, n_planes=2),
    # d=4 -> 5 * 5 = 25 switches.
    "small": dict(degree=4, lifts=1, lift_factor=5, hosts_per=2, n_planes=4),
    # d=6 -> 7 * 14 = 98 switches.
    "full": dict(degree=6, lifts=1, lift_factor=14, hosts_per=7, n_planes=4),
}


@dataclass
class ExpanderFamilyResult:
    n_switches: int
    n_planes: int
    #: family -> average best-path hop count (no failures).
    hop_count: Dict[str, float] = field(default_factory=dict)
    #: family -> hop inflation at 30% failures.
    hop_inflation: Dict[str, float] = field(default_factory=dict)
    #: family -> hetero ideal throughput / serial-high.
    throughput_ratio: Dict[str, float] = field(default_factory=dict)


def _families(params):
    degree = params["degree"]
    n_switches = (degree + 1) * params["lift_factor"] ** params["lifts"]
    hosts_per = params["hosts_per"]

    def jellyfish(seed: int):
        return build_jellyfish(n_switches, degree, hosts_per, seed=seed)

    def xpander(seed: int):
        return build_xpander(
            degree, params["lifts"], params["lift_factor"], hosts_per,
            seed=seed,
        )

    return n_switches, {"jellyfish": jellyfish, "xpander": xpander}


def run(scale: Optional[str] = None) -> ExpanderFamilyResult:
    params = PRESETS[get_scale(scale)]
    n_switches, families = _families(params)
    n_planes = params["n_planes"]
    result = ExpanderFamilyResult(n_switches=n_switches, n_planes=n_planes)

    for name, build in families.items():
        parallel = ParallelTopology.heterogeneous(build, n_planes)
        pnet = PNet(parallel)
        result.hop_count[name] = average_min_hop_count(pnet)

        # Hop inflation at 30% random switch-link failures.
        failed = ParallelTopology.heterogeneous(build, n_planes)
        rng = random.Random(f"expfam-{name}")
        for plane in failed.planes:
            plane.fail_random_links(0.3, rng, switch_only=True)
        result.hop_inflation[name] = (
            average_min_hop_count(PNet(failed)) / result.hop_count[name]
            - 1.0
        )

        # Ideal rack-level all-to-all, normalised vs serial-high (= N x
        # one plane by LP scaling).
        merged, racks = merge_parallel_with_rack_sources(parallel.planes)
        demands = {pair: 1.0 for pair in rack_level_all_to_all(racks)}
        hetero_alpha = ideal_throughput(merged, demands)
        base_merged, base_racks = merge_parallel_with_rack_sources(
            [build(0)]
        )
        base_alpha = ideal_throughput(
            base_merged,
            {pair: 1.0 for pair in rack_level_all_to_all(base_racks)},
        )
        result.throughput_ratio[name] = hetero_alpha / (
            n_planes * base_alpha
        )
    return result


def main() -> ExpanderFamilyResult:
    result = run()
    print(
        f"Expander families as heterogeneous P-Nets "
        f"({result.n_switches} switches, {result.n_planes} planes)\n"
    )
    print(
        format_table(
            ["family", "avg best-path hops", "hop inflation @30% fail",
             "ideal tput vs serial-high"],
            [
                [
                    name,
                    f"{result.hop_count[name]:.3f}",
                    f"+{result.hop_inflation[name]:.1%}",
                    f"{result.throughput_ratio[name]:.2f}x",
                ]
                for name in sorted(result.hop_count)
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
