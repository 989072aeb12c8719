"""Figure 10 + Table 2: MTU-sized RPC completion times, single-path.

Every host runs a closed-loop ping-pong chain of 1500 B requests to
random servers on the packet simulator.  Routing is single path: ECMP for
serial networks and homogeneous P-Nets (all planes look alike), min-hop
plane selection for the heterogeneous P-Net (the "low-latency" interface).

Expected shape (paper): heterogeneous parallel wins big (median ~80% of
serial-low) because some plane usually has a shorter path; homogeneous
parallel ~= serial-low (same hop distribution); serial high-bandwidth
gains only the serialisation delay (~98%), which shrinks as links speed up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.core.path_selection import EcmpPolicy, MinHopPlanePolicy
from repro.core.pnet import PNet
from repro.exp.common import (
    JellyfishFamily,
    PARALLEL_HETEROGENEOUS,
    PARALLEL_HOMOGENEOUS,
    SERIAL_HIGH,
    SERIAL_LOW,
    format_table,
    get_scale,
    network_for_label,
)
from repro.exp.runner import TrialSpec, run_trials
from repro.api import build_network
from repro.sim.rpc import RpcClient
from repro.traffic.rpc_workload import RpcWorkload
from repro.units import MTU

#: Plotting order (matches NetworkSet.items()).
LABELS = (
    SERIAL_LOW,
    PARALLEL_HOMOGENEOUS,
    PARALLEL_HETEROGENEOUS,
    SERIAL_HIGH,
)

PRESETS = {
    "tiny": dict(switches=12, degree=5, hosts_per=2, n_planes=4, rounds=20),
    "small": dict(switches=24, degree=6, hosts_per=4, n_planes=4, rounds=60),
    "full": dict(switches=98, degree=7, hosts_per=7, n_planes=4, rounds=1000),
}


@dataclass
class Fig10Result:
    n_hosts: int
    rounds: int
    #: network label -> all request completion times (seconds).
    completion_times: Dict[str, List[float]] = field(default_factory=dict)

    def summaries(self) -> Dict[str, Summary]:
        return {
            label: summarize(times)
            for label, times in self.completion_times.items()
        }

    def table2(self) -> Dict[str, Dict[str, float]]:
        """Median/average/p99 normalised against serial-low (Table 2)."""
        stats = self.summaries()
        base = stats[SERIAL_LOW]
        return {
            label: {
                "median": s.median / base.median,
                "average": s.mean / base.mean,
                "p99": s.p99 / base.p99,
            }
            for label, s in stats.items()
        }


def single_path_policy(label: str, pnet: PNet, seed: int = 0):
    """The single-path policy each network type uses in this experiment."""
    if label == PARALLEL_HETEROGENEOUS:
        return MinHopPlanePolicy(pnet, salt=seed)
    return EcmpPolicy(pnet, salt=seed)


def run_rpc_network(
    label: str,
    pnet: PNet,
    request_bytes: int,
    response_bytes: int,
    rounds: int,
    concurrency: int = 1,
    seed: int = 0,
) -> Tuple[List[float], int]:
    """Closed-loop RPC workload on one network.

    Returns (request completion times, total retransmits).
    """
    workload = RpcWorkload(
        pnet.hosts,
        request_bytes=request_bytes,
        response_bytes=response_bytes,
        rounds=rounds,
        concurrency=concurrency,
        seed=seed,
    )
    policy = single_path_policy(label, pnet, seed)
    net = build_network(pnet.planes, kind="packet")
    clients = []
    for chain_idx, (client_host, chain) in enumerate(workload.chains()):
        client = RpcClient(
            net,
            policy.select,
            client_host,
            workload.destination_sequence(client_host, chain),
            request_bytes=request_bytes,
            response_bytes=response_bytes,
            flow_id_base=chain_idx * 100_003,
        )
        client.start()
        clients.append(client)
    net.run()
    times = [t for c in clients for t in c.completion_times]
    return times, sum(c.retransmits for c in clients)


def rpc_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    request_bytes: int,
    response_bytes: int,
    rounds: int,
    concurrency: int = 1,
    seed: int = 0,
) -> Tuple[List[float], int]:
    """One network's RPC run, built from primitives (picklable trial)."""
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    return run_rpc_network(
        label,
        pnet,
        request_bytes=request_bytes,
        response_bytes=response_bytes,
        rounds=rounds,
        concurrency=concurrency,
        seed=seed,
    )


def run(scale: Optional[str] = None) -> Fig10Result:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    specs = [
        TrialSpec(
            fn="repro.exp.fig10:rpc_trial",
            key=(label,),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                request_bytes=MTU,
                response_bytes=MTU,
                rounds=params["rounds"],
            ),
        )
        for label in LABELS
    ]
    trials = run_trials(specs)
    result = Fig10Result(n_hosts=family.n_hosts, rounds=params["rounds"])
    result.completion_times = {
        label: trials[(label,)][0] for label in LABELS
    }
    return result


def main() -> Fig10Result:
    result = run()
    print(
        f"Figure 10 / Table 2: 1500B RPC completion, {result.n_hosts} hosts, "
        f"{result.rounds} rounds per host (single-path routing)\n"
    )
    stats = result.summaries()
    print(
        format_table(
            ["network", "median us", "mean us", "p99 us"],
            [
                [label, f"{s.median * 1e6:.2f}", f"{s.mean * 1e6:.2f}",
                 f"{s.p99 * 1e6:.2f}"]
                for label, s in stats.items()
            ],
        )
    )
    print("\nTable 2 (normalised vs serial low-bandwidth):")
    print(
        format_table(
            ["network", "median", "average", "99%-tile"],
            [
                [label, f"{v['median']:.1%}", f"{v['average']:.1%}",
                 f"{v['p99']:.1%}"]
                for label, v in result.table2().items()
            ],
        )
    )
    return result


if __name__ == "__main__":
    main()
