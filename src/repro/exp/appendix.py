"""Appendix A (Figures 16-20): all five traces, both rates, both families.

Generalises Figure 13's trace replay across the full grid the paper's
appendix covers:

* traces: websearch, webserver, cache, hadoop, datamining;
* base rates: 10 G (parallel 4x10G vs serial 40G) and
  100 G (parallel 4x100G vs serial 400G);
* topology families: fat tree (no heterogeneous variant) and Jellyfish.

Expected shape: at 10/40G P-Nets beat serial-low broadly (better load
balancing); at 100/400G the heterogeneous path-length advantage carries
short flows below even the serial 400G network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.exp.common import (
    FatTreeFamily,
    JellyfishFamily,
    family_labels,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.fig10 import single_path_policy
from repro.exp.fig13 import replay_trace
from repro.exp.runner import TrialSpec, run_trials
from repro.traffic.traces import TRACES
from repro.units import Gbps

PRESETS = {
    "tiny": dict(
        jf=dict(n_switches=10, net_degree=4, hosts_per_switch=2),
        ft_k=4,
        n_planes=4,
        rates=(10 * Gbps, 100 * Gbps),
        traces=("datamining", "websearch"),
        flows_per_host=4,
        completions_per_host=8,
    ),
    "small": dict(
        jf=dict(n_switches=16, net_degree=5, hosts_per_switch=3),
        ft_k=4,
        n_planes=4,
        rates=(10 * Gbps, 100 * Gbps),
        traces=("websearch", "webserver", "cache", "hadoop", "datamining"),
        flows_per_host=4,
        completions_per_host=15,
    ),
    "full": dict(
        jf=dict(n_switches=98, net_degree=7, hosts_per_switch=7),
        ft_k=8,
        n_planes=4,
        rates=(10 * Gbps, 100 * Gbps),
        traces=("websearch", "webserver", "cache", "hadoop", "datamining"),
        flows_per_host=4,
        completions_per_host=150,
    ),
}


@dataclass
class AppendixResult:
    #: (family, rate, trace, network label) -> FCT summary.
    stats: Dict[Tuple[str, float, str, str], Summary] = field(
        default_factory=dict
    )


def _make_family(family_name: str, rate: float, ft_k: int, jf: Dict):
    if family_name == "fattree":
        return FatTreeFamily(ft_k, link_rate=rate)
    if family_name == "jellyfish":
        return JellyfishFamily(link_rate=rate, **jf)
    raise ValueError(f"unknown family {family_name!r}")


def appendix_trial(
    family_name: str,
    rate: float,
    ft_k: int,
    jf: Dict,
    n_planes: int,
    label: str,
    trace_name: str,
    flows_per_host: int,
    completions_per_host: int,
) -> List[float]:
    """FCTs of one (family, rate, trace, network) replay."""
    family = _make_family(family_name, rate, ft_k, jf)
    pnet = network_for_label(family, label, n_planes)
    policy = single_path_policy(label, pnet)
    return replay_trace(
        pnet,
        policy,
        TRACES[trace_name],
        flows_per_host,
        completions_per_host,
    )


def run(scale: Optional[str] = None) -> AppendixResult:
    params = PRESETS[get_scale(scale)]
    result = AppendixResult()
    grid = []
    for rate in params["rates"]:
        for family_name in ("fattree", "jellyfish"):
            family = _make_family(
                family_name, rate, params["ft_k"], params["jf"]
            )
            for trace_name in params["traces"]:
                for label in family_labels(family):
                    grid.append((family_name, rate, trace_name, label))
    specs = [
        TrialSpec(
            fn="repro.exp.appendix:appendix_trial",
            key=cell,
            kwargs=dict(
                family_name=cell[0],
                rate=cell[1],
                trace_name=cell[2],
                label=cell[3],
                ft_k=params["ft_k"],
                jf=params["jf"],
                n_planes=params["n_planes"],
                flows_per_host=params["flows_per_host"],
                completions_per_host=params["completions_per_host"],
            ),
        )
        for cell in grid
    ]
    trials = run_trials(specs)
    for cell in grid:
        result.stats[cell] = summarize(trials[cell])
    return result


def main() -> AppendixResult:
    result = run()
    print("Appendix A: trace-replay FCT medians/p99s (microseconds)\n")
    keys = sorted(result.stats, key=lambda k: (k[0], k[1], k[2], k[3]))
    rows = [
        [
            family,
            f"{rate / Gbps:.0f}G",
            trace,
            label,
            f"{s.median * 1e6:.1f}",
            f"{s.p99 * 1e6:.1f}",
        ]
        for (family, rate, trace, label) in keys
        for s in [result.stats[(family, rate, trace, label)]]
    ]
    print(
        format_table(
            ["family", "rate", "trace", "network", "median us", "p99 us"],
            rows,
        )
    )
    return result


if __name__ == "__main__":
    main()
