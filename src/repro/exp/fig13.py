"""Figure 13: published datacenter traces -- sizes and FCT distributions.

* **13a** -- the flow-size CDFs of the five published traces.
* **13b** -- FCT distribution replaying the Datamining [22] sizes.
* **13c** -- FCT distribution replaying the Websearch [6] sizes.

Setup mirrors section 5.3: four concurrent closed-loop flows per host to
random destinations, sizes drawn i.i.d. from the trace CDF, single-path
routing, on the fluid simulator with slow-start.  Small-flow-dominated
traces (datamining) show the heterogeneous P-Net's latency advantage;
large-flow traces (websearch) show the throughput story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.flowspec import FlowSpec
from repro.core.pnet import PNet
from repro.exp.common import (
    JellyfishFamily,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.fig10 import LABELS, single_path_policy
from repro.exp.runner import TrialSpec, run_trials
from repro.api import build_network
from repro.traffic.traces import TRACES, FlowSizeCDF

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4,
        flows_per_host=4, completions_per_host=12,
        traces=("datamining", "websearch"),
    ),
    "small": dict(
        switches=16, degree=5, hosts_per=3, n_planes=4,
        flows_per_host=4, completions_per_host=25,
        traces=("datamining", "websearch"),
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        flows_per_host=4, completions_per_host=200,
        traces=("datamining", "websearch"),
    ),
}


@dataclass
class Fig13Result:
    n_hosts: int
    #: trace -> network label -> list of FCTs (seconds).
    fcts: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)

    def summaries(self) -> Dict[Tuple[str, str], Summary]:
        return {
            (trace, label): summarize(values)
            for trace, nets in self.fcts.items()
            for label, values in nets.items()
        }


def replay_trace(
    pnet: PNet,
    policy,
    trace: FlowSizeCDF,
    flows_per_host: int,
    completions_per_host: int,
    seed: int = 0,
) -> List[float]:
    """Closed-loop trace replay on one network; returns FCTs.

    Each host keeps ``flows_per_host`` flows outstanding; when one
    finishes the next is drawn (new random destination + size) until the
    per-host completion budget is exhausted.  All chains draw from
    deterministic per-chain RNGs, so runs are reproducible.
    """
    sim = build_network(pnet.planes, kind="fluid", slow_start=True)
    hosts = pnet.hosts
    flow_ids = iter(range(10**9))
    budget = {host: completions_per_host for host in hosts}
    fcts: List[float] = []

    def launch(host: str, rng: random.Random) -> None:
        if budget[host] <= 0:
            return
        budget[host] -= 1
        dst = rng.choice(hosts)
        while dst == host:
            dst = rng.choice(hosts)
        size = trace.sample(rng)
        paths = policy.select(host, dst, next(flow_ids))
        sim.add_flow(spec=FlowSpec(
            src=host, dst=dst, size=size, paths=paths,
            on_complete=lambda rec: (
                fcts.append(rec.fct), launch(host, rng)
            ),
        ))

    for host in hosts:
        for chain in range(flows_per_host):
            launch(host, random.Random(f"fig13-{seed}-{host}-{chain}"))
    sim.run()
    return fcts


def trace_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    trace_name: str,
    flows_per_host: int,
    completions_per_host: int,
    seed: int = 0,
) -> List[float]:
    """FCTs of one (trace, network) closed-loop replay."""
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    policy = single_path_policy(label, pnet)
    return replay_trace(
        pnet,
        policy,
        TRACES[trace_name],
        flows_per_host,
        completions_per_host,
        seed=seed,
    )


def run(scale: Optional[str] = None) -> Fig13Result:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = Fig13Result(n_hosts=family.n_hosts)
    specs = [
        TrialSpec(
            fn="repro.exp.fig13:trace_trial",
            key=(trace_name, label),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                trace_name=trace_name,
                flows_per_host=params["flows_per_host"],
                completions_per_host=params["completions_per_host"],
            ),
        )
        for trace_name in params["traces"]
        for label in LABELS
    ]
    trials = run_trials(specs)
    for trace_name in params["traces"]:
        result.fcts[trace_name] = {
            label: trials[(trace_name, label)] for label in LABELS
        }
    return result


def flow_size_cdfs() -> Dict[str, List[Tuple[float, float]]]:
    """Figure 13a: the control points of all five published traces."""
    return {name: list(cdf.points) for name, cdf in TRACES.items()}


def main() -> Fig13Result:
    print("Figure 13a: flow size CDF control points")
    for name, points in flow_size_cdfs().items():
        mid = TRACES[name].quantile(0.5)
        p999 = TRACES[name].quantile(0.999)
        print(f"  {name:<12} median={mid:>12,} B   p99.9={p999:>14,} B")
    result = run()
    print(f"\nFigure 13b/c: trace-replay FCTs ({result.n_hosts} hosts)\n")
    for trace, nets in result.fcts.items():
        print(f"trace: {trace}")
        rows = []
        for label, values in nets.items():
            s = summarize(values)
            rows.append(
                [label, s.count, f"{s.median * 1e6:.1f}",
                 f"{s.p90 * 1e6:.1f}", f"{s.p99 * 1e6:.1f}"]
            )
        print(
            format_table(
                ["network", "flows", "median us", "p90 us", "p99 us"], rows
            )
        )
        print()
    return result


if __name__ == "__main__":
    main()
