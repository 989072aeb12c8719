"""Figure 11: concurrent 100 kB RPC completion times.

Same setup as Figure 10 but with 100 kB requests and 1..10 concurrent
closed-loop chains per host.  The paper's shape: serial low-bandwidth
suffers most as concurrency grows (limited drain rate and path diversity
cause queue buildup, drops, and retransmit timeouts -- hence the broken
axis on the 99th percentile); parallel networks spread the chains over
4x the links and queues and degrade mildly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.stats import Summary, summarize
from repro.exp.common import JellyfishFamily, format_table, get_scale
from repro.exp.fig10 import LABELS
from repro.exp.runner import TrialSpec, run_trials
from repro.units import KB, MTU

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=2, n_planes=4,
        concurrency=(1, 4), rounds=6,
    ),
    "small": dict(
        switches=12, degree=5, hosts_per=2, n_planes=4,
        concurrency=(1, 4, 8), rounds=8,
    ),
    "full": dict(
        switches=98, degree=7, hosts_per=7, n_planes=4,
        concurrency=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), rounds=100,
    ),
}


@dataclass
class Fig11Result:
    n_hosts: int
    #: (label, concurrency) -> Summary of request completion times.
    stats: Dict[Tuple[str, int], Summary] = field(default_factory=dict)
    #: (label, concurrency) -> total TCP retransmissions (Fig 11c inset).
    retransmits: Dict[Tuple[str, int], int] = field(default_factory=dict)


def run(scale: Optional[str] = None) -> Fig11Result:
    """The (concurrency x network) grid, one trial per cell."""
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = Fig11Result(n_hosts=family.n_hosts)
    specs = [
        TrialSpec(
            fn="repro.exp.fig10:rpc_trial",
            key=(concurrency, label),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                request_bytes=int(100 * KB),
                response_bytes=MTU,
                rounds=params["rounds"],
                concurrency=concurrency,
            ),
        )
        for concurrency in params["concurrency"]
        for label in LABELS
    ]
    trials = run_trials(specs)
    for concurrency in params["concurrency"]:
        for label in LABELS:
            times, retx = trials[(concurrency, label)]
            result.stats[(label, concurrency)] = summarize(times)
            result.retransmits[(label, concurrency)] = retx
    return result


def main() -> Fig11Result:
    result = run()
    print(f"Figure 11: 100kB concurrent RPCs, {result.n_hosts} hosts\n")
    rows = []
    for (label, conc), s in sorted(result.stats.items()):
        rows.append(
            [
                label, conc,
                f"{s.median * 1e6:.1f}", f"{s.p90 * 1e6:.1f}",
                f"{s.p99 * 1e6:.1f}",
                result.retransmits[(label, conc)],
            ]
        )
    print(
        format_table(
            ["network", "concurrency", "median us", "p90 us", "p99 us",
             "retransmits"],
            rows,
        )
    )
    return result


if __name__ == "__main__":
    main()
