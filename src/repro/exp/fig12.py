"""Figure 12: Hadoop-like sort, per-worker completion time per stage.

A sort job (paper: 100 GB over 32 mappers + 32 reducers in a 250-host
cluster) runs its three network stages -- read input, shuffle, write
output -- on the fluid simulator, with each worker moving at most 4
blocks/flows concurrently and single-path routing (the flows sit at the
~100 MB single-vs-multipath threshold).

Per-worker completion time = when the worker's last flow of the stage
finishes.  Expected shape: P-Nets beat serial-low everywhere; the
heterogeneous variant gains extra in the sparse read/write stages
(shorter paths) but not in the dense shuffle (collisions on the short
paths), where both parallel variants approach serial-high.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
from repro.traffic.shuffle import ShuffleFlow, ShuffleJob
from repro.units import GB, MB

PRESETS = {
    "tiny": dict(
        switches=10, degree=4, hosts_per=3, n_planes=4,
        total=4 * GB, mappers=4, reducers=4, block=int(128 * MB),
    ),
    "small": dict(
        switches=18, degree=6, hosts_per=4, n_planes=4,
        total=20 * GB, mappers=8, reducers=8, block=int(128 * MB),
    ),
    "full": dict(
        switches=36, degree=7, hosts_per=7, n_planes=4,
        total=100 * GB, mappers=32, reducers=32, block=int(128 * MB),
    ),
}

STAGES = ("read_input", "shuffle", "write_output")


@dataclass
class Fig12Result:
    n_hosts: int
    #: label -> stage -> per-worker completion times (seconds).
    worker_times: Dict[str, Dict[str, List[float]]] = field(
        default_factory=dict
    )

    def summaries(self) -> Dict[str, Dict[str, Summary]]:
        return {
            label: {stage: summarize(times) for stage, times in stages.items()}
            for label, stages in self.worker_times.items()
        }


def _run_stage(
    pnet: PNet,
    policy,
    flows: List[ShuffleFlow],
    concurrency: int,
) -> Dict[str, float]:
    """Run one stage with a per-worker concurrency bound.

    Returns the completion time of each worker's last flow.
    """
    sim = build_network(pnet.planes, kind="fluid", slow_start=True)
    queues: Dict[str, List[ShuffleFlow]] = {}
    for flow in flows:
        queues.setdefault(flow.worker, []).append(flow)
    finish: Dict[str, float] = {}
    outstanding: Dict[str, int] = {worker: 0 for worker in queues}
    flow_ids = iter(range(10**9))

    def launch(worker: str) -> None:
        while queues[worker] and outstanding[worker] < concurrency:
            flow = queues[worker].pop(0)
            outstanding[worker] += 1
            paths = policy.select(flow.src, flow.dst, next(flow_ids))
            sim.add_flow(spec=FlowSpec(
                src=flow.src,
                dst=flow.dst,
                size=flow.size,
                paths=paths,
                on_complete=lambda rec, worker=worker: done(worker),
                tag=worker,
            ))

    def done(worker: str) -> None:
        outstanding[worker] -= 1
        finish[worker] = sim.now
        launch(worker)

    for worker in queues:
        launch(worker)
    sim.run()
    return finish


def stage_trial(
    switches: int,
    degree: int,
    hosts_per: int,
    n_planes: int,
    label: str,
    stage: str,
    total: int,
    mappers: int,
    reducers: int,
    block: int,
) -> List[float]:
    """Per-worker completion times of one (network, stage) pair."""
    family = JellyfishFamily(switches, degree, hosts_per)
    pnet = network_for_label(family, label, n_planes)
    job = ShuffleJob(
        pnet.hosts,
        total_bytes=total,
        n_mappers=mappers,
        n_reducers=reducers,
        block_bytes=block,
        seed=0,
    )
    policy = single_path_policy(label, pnet)
    finish = _run_stage(pnet, policy, job.stages()[stage], job.concurrency)
    return sorted(finish.values())


def run(scale: Optional[str] = None) -> Fig12Result:
    params = PRESETS[get_scale(scale)]
    family = JellyfishFamily(
        params["switches"], params["degree"], params["hosts_per"]
    )
    result = Fig12Result(n_hosts=family.n_hosts)
    specs = [
        TrialSpec(
            fn="repro.exp.fig12:stage_trial",
            key=(label, stage),
            kwargs=dict(
                switches=params["switches"],
                degree=params["degree"],
                hosts_per=params["hosts_per"],
                n_planes=params["n_planes"],
                label=label,
                stage=stage,
                total=params["total"],
                mappers=params["mappers"],
                reducers=params["reducers"],
                block=params["block"],
            ),
        )
        for label in LABELS
        for stage in STAGES
    ]
    trials = run_trials(specs)
    for label in LABELS:
        result.worker_times[label] = {
            stage: trials[(label, stage)] for stage in STAGES
        }
    return result


def main() -> Fig12Result:
    result = run()
    print(
        f"Figure 12: shuffle workload per-worker completion times "
        f"({result.n_hosts}-host cluster)\n"
    )
    for stage in STAGES:
        print(f"stage: {stage}")
        rows = []
        for label, stages in result.worker_times.items():
            s = summarize(stages[stage])
            rows.append(
                [label, f"{s.median:.3f}", f"{s.mean:.3f}",
                 f"{s.maximum:.3f}"]
            )
        print(
            format_table(
                ["network", "median s", "mean s", "max (tail) s"], rows
            )
        )
        print()
    return result


if __name__ == "__main__":
    main()
