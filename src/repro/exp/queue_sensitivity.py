"""Extension ablation: switch buffer depth sensitivity.

Drop-tail buffer size is the packet simulator's most consequential knob
(htsim's default is 100 packets/port).  This ablation re-runs the
concurrent-RPC contention point (Figure 11's stress case) across buffer
depths to show that the paper's qualitative result -- P-Nets degrade
gracefully where the serial low-bandwidth network collapses -- holds from
shallow to deep buffers, and to expose the expected secondary effects:

* shallow buffers: more drops everywhere, serial-low collapses hardest;
* deep buffers: drops traded for queueing delay (bufferbloat), the
  serial network's p99 stays an RTO-or-queueing disaster either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.exp.fig10 import single_path_policy
from repro.api import build_network
from repro.sim.rpc import RpcClient
from repro.traffic.rpc_workload import RpcWorkload
from repro.units import KB, MTU

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4,
        depths=(20, 100), concurrency=6, rounds=6,
    ),
    "small": dict(
        switches=12, degree=5, hosts_per=2, n_planes=4,
        depths=(20, 100, 400), concurrency=8, rounds=8,
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        depths=(20, 50, 100, 200, 400), concurrency=10, rounds=100,
    ),
}


@dataclass
class QueueSensitivityResult:
    n_hosts: int
    concurrency: int
    #: (network label, queue depth) -> completion-time summary.
    stats: Dict[Tuple[str, int], Summary] = field(default_factory=dict)
    #: (network label, queue depth) -> (drops, retransmits).
    losses: Dict[Tuple[str, int], Tuple[int, int]] = field(
        default_factory=dict
    )


def run(scale: Optional[str] = None) -> QueueSensitivityResult:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    networks = family.network_set(params["n_planes"])
    result = QueueSensitivityResult(
        n_hosts=family.n_hosts, concurrency=params["concurrency"]
    )
    for depth in params["depths"]:
        for label, pnet in networks.items():
            workload = RpcWorkload(
                pnet.hosts,
                request_bytes=int(100 * KB),
                response_bytes=MTU,
                rounds=params["rounds"],
                concurrency=params["concurrency"],
                seed=0,
            )
            policy = single_path_policy(label, pnet)
            net = build_network(pnet.planes, kind="packet", queue_packets=depth)
            clients = []
            for idx, (client_host, chain) in enumerate(workload.chains()):
                client = RpcClient(
                    net,
                    policy.select,
                    client_host,
                    workload.destination_sequence(client_host, chain),
                    request_bytes=workload.request_bytes,
                    response_bytes=workload.response_bytes,
                    flow_id_base=idx * 100_003,
                )
                client.start()
                clients.append(client)
            net.run()
            times = [t for c in clients for t in c.completion_times]
            result.stats[(label, depth)] = summarize(times)
            result.losses[(label, depth)] = (
                net.total_drops,
                sum(c.retransmits for c in clients),
            )
    return result


def main() -> QueueSensitivityResult:
    result = run()
    print(
        f"Queue-depth sensitivity ({result.n_hosts} hosts, "
        f"{result.concurrency} concurrent 100kB RPC chains per host)\n"
    )
    rows = [
        [
            label, depth,
            f"{s.median * 1e6:.1f}", f"{s.p99 * 1e6:.1f}",
            result.losses[(label, depth)][0],
            result.losses[(label, depth)][1],
        ]
        for (label, depth), s in sorted(result.stats.items())
    ]
    print(
        format_table(
            ["network", "buffer pkts", "median us", "p99 us", "drops",
             "retx"],
            rows,
        )
    )
    return result


if __name__ == "__main__":
    main()
