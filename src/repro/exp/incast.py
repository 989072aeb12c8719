"""Extension experiment: incast traffic on P-Nets (paper section 6.5).

The paper defers incast to future work but states the hypothesis: "P-Net
can spread the traffic across separate dataplanes to alleviate congestion
in the network, but careful coordination is still needed to avoid
overrunning end host NIC buffers."

This experiment tests both halves on the packet simulator.  ``fan_in``
senders simultaneously push a block each to one receiver:

* in the *network core* a P-Net spreads the synchronised burst over N
  disjoint paths and queues, cutting drops and retransmission timeouts;
* at the *receiver edge*, each of the receiver's N downlinks runs at
  1/N the serial-high rate, so once the bottleneck is the last hop the
  advantage shrinks -- the coordination problem the paper points at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.stats import summarize
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.exp.fig10 import single_path_policy
from repro.api import build_network
from repro.units import KB
from repro.workloads import IncastScenario, bind

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4,
        fan_in=(4, 8), block=int(64 * KB),
    ),
    "small": dict(
        switches=12, degree=5, hosts_per=3, n_planes=4,
        fan_in=(4, 8, 16), block=int(64 * KB),
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        fan_in=(4, 8, 16, 32, 64), block=int(64 * KB),
    ),
}


@dataclass
class IncastResult:
    n_hosts: int
    #: (label, fan_in) -> FCT summary of the synchronised senders.
    stats: Dict = field(default_factory=dict)
    #: (label, fan_in) -> (drops, retransmits).
    losses: Dict = field(default_factory=dict)


def run(scale: Optional[str] = None) -> IncastResult:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    networks = family.network_set(params["n_planes"])
    result = IncastResult(n_hosts=family.n_hosts)
    # Configurations: every network type with plain TCP, plus the
    # serial-low baseline with DCTCP (the incast-aware transport the
    # paper points to); DCTCP queues mark at K=20 packets.
    configs = [
        (label, pnet, "tcp", None) for label, pnet in networks.items()
    ]
    configs.append(
        (f"{list(networks.items())[0][0]}+dctcp",
         networks.serial_low, "dctcp", 20)
    )
    for label, pnet, transport, ecn in configs:
        policy = single_path_policy(label.split("+")[0], pnet)
        for fan_in in params["fan_in"]:
            # The flow set comes from the shared scenario generator
            # (same senders/receiver placement the inline loop always
            # used); the experiment only layers transport/ECN on top.
            scenario = IncastScenario(
                fan_in=fan_in, block=params["block"]
            )
            net = build_network(pnet.planes, kind="packet", ecn_threshold=ecn)
            program = scenario.program(pnet, policy, seed=0)
            for spec in bind(program, net):
                net.add_flow(spec=spec.replace(transport=transport))
            net.run()
            fcts = [rec.fct for rec in net.records]
            result.stats[(label, fan_in)] = summarize(fcts)
            result.losses[(label, fan_in)] = (
                net.total_drops,
                net.total_retransmits,
            )
    return result


def main() -> IncastResult:
    result = run()
    print(f"Incast (section 6.5 extension), {result.n_hosts} hosts\n")
    rows = [
        [
            label, fan_in,
            f"{s.median * 1e6:.1f}", f"{s.maximum * 1e6:.1f}",
            result.losses[(label, fan_in)][0],
            result.losses[(label, fan_in)][1],
        ]
        for (label, fan_in), s in sorted(result.stats.items())
    ]
    print(
        format_table(
            ["network", "fan-in", "median us", "max us", "drops", "retx"],
            rows,
        )
    )
    return result


if __name__ == "__main__":
    main()
