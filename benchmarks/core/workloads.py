"""The core benchmark's six workloads.

Each workload is a dataclass whose fields are its sizes, so tests can
build the same workload shrunken.  ``setup`` builds the inputs once
(topology, traffic, path selection); ``rep`` runs one fresh network over
them through the public API and returns an :class:`Outcome`; ``check``
lists the outcome's failures.  Every call into the program is wrapped in
a span, so the harness times layers from the outside.

Topologies and arrival schedules are drawn from :data:`TOPOLOGY_SEED`;
the benchmark seed draws the traffic matrix (who sends to whom).  Every
seed therefore offers the same load shape on the same fabric, which
keeps host time comparable from seed to seed while the flows differ.
"""

from __future__ import annotations

import math
import os
import pathlib
import random
import resource
import shutil
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.api import build_network, run_trial
from repro.control import Controller
from repro.core.flowspec import FlowSpec
from repro.core.path_selection import KspMultipathPolicy
from repro.exp import fig7
from repro.exp.common import JellyfishFamily
from repro.exp.runner import TrialSpec, last_stats, run_trials
from repro.routing.shortest import all_shortest_paths
from repro.shard import ShardPlan, run_packet_trial
from repro.topology import ParallelTopology
from repro.traffic.openloop import poisson_flows
from repro.traffic.patterns import permutation
from repro.traffic.traces import WEBSEARCH
from repro.units import KB, MSS

#: Seed of every topology instance and of the arrival schedule.
TOPOLOGY_SEED = 0

#: Relative slack on the FCT lower bound (float rounding only).
FCT_SLACK = 1e-9


@dataclass
class Outcome:
    """What one repetition produced.

    Attributes:
        launched: flows (for the sweep: trials) submitted.
        rows: one sorted row per completed flow or trial -- the input of
            the records digest.
        delivered: bytes delivered (None for the sweep).
        layer: per-layer values read from public attributes.
    """

    launched: int
    rows: List[Tuple]
    delivered: Optional[float]
    layer: Dict[str, float]


@dataclass
class Prepared:
    """What ``setup`` built: the inputs every repetition reuses."""

    planes: List[Any]
    specs: List[Any]
    pairs: int = 0
    normaliser: float = 0.0


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _flow_rows(records) -> List[Tuple]:
    """(flow_id, src, dst, size, start, finish) for either record kind."""
    rows = []
    for record in records:
        start = getattr(record, "start", None)
        finish = getattr(record, "finish", None)
        if start is None:
            start, finish = record.arrival, record.completion
        rows.append((
            record.flow_id, record.src, record.dst, record.size, start, finish,
        ))
    rows.sort()
    return rows


def _per_mtu(events: int, delivered: float) -> float:
    """Heap events per MSS-sized packet of delivered payload."""
    return events / (delivered / MSS) if delivered else 0.0


def _packet_layer(net) -> Dict[str, float]:
    events = net.loop.events_processed
    return {
        "sim.events.processed": events,
        "sim.events.per_mtu": _per_mtu(events, net.delivered_bytes),
        "sim.events.max_heap": net.loop.max_heap_depth,
        "sim.link.drops": net.total_drops,
        "sim.tcp.retransmits": net.total_retransmits,
    }


def _fluid_layer(net) -> Dict[str, float]:
    return {
        "fluid.events": net.events_processed,
        "fluid.max_active": net.max_active_flows,
    }


class FlowWorkload:
    """Seeded flows on a heterogeneous parallel Jellyfish."""

    name: ClassVar[str]
    why: ClassVar[str]
    seed: int
    switches: int
    degree: int
    hosts_per_switch: int
    n_planes: int
    k: int

    def config(self) -> Dict[str, Any]:
        return asdict(self)

    def demands(self, pnet) -> List[Tuple[str, str, int, float]]:
        """(src, dst, bytes, launch time) of every flow."""
        raise NotImplementedError

    def paths(self, policy, pnet, index: int, src: str, dst: str):
        return policy.select(src, dst, index)

    def setup(self, spans) -> Prepared:
        with spans.span("setup.topology"):
            family = JellyfishFamily(
                self.switches, self.degree, self.hosts_per_switch
            )
            pnet = family.parallel_heterogeneous(
                self.n_planes, seed=TOPOLOGY_SEED
            )
        with spans.span("setup.flows"):
            demands = self.demands(pnet)
        with spans.span("setup.routing"):
            policy = KspMultipathPolicy(pnet, k=self.k, seed=TOPOLOGY_SEED)
            specs = [
                FlowSpec(
                    src=src, dst=dst, size=size, at=at,
                    paths=self.paths(policy, pnet, i, src, dst),
                )
                for i, (src, dst, size, at) in enumerate(demands)
            ]
        pairs = len({(spec.src, spec.dst) for spec in specs})
        return Prepared(planes=pnet.planes, specs=specs, pairs=pairs)

    def check(self, prepared: Prepared, outcome: Outcome) -> Dict[str, List]:
        """Failing flow ids per check (an empty list passes)."""
        specs = prepared.specs
        uplink = ParallelTopology(prepared.planes).total_host_uplink
        done = {row[0] for row in outcome.rows}
        wrong_size = []
        too_fast = []
        for fid, src, dst, size, start, finish in outcome.rows:
            if size != specs[fid].size:
                wrong_size.append(fid)
            # No flow beats its hosts' aggregate line rate across planes.
            rate = min(uplink(src), uplink(dst))
            if finish - start < size * 8 / rate * (1 - FCT_SLACK):
                too_fast.append(fid)
        total = sum(spec.size for spec in specs)
        return {
            "completion": [i for i in range(len(specs)) if i not in done],
            "bytes": wrong_size + (
                [] if outcome.delivered == total else ["total"]
            ),
            "fct_bound": too_fast,
        }

    @staticmethod
    def fcts(outcome: Outcome) -> List[float]:
        return [row[5] - row[4] for row in outcome.rows]


class EngineWorkload(FlowWorkload):
    """One trial through ``build_network`` + ``run_trial``."""

    kind: ClassVar[str]

    def engine_kwargs(self) -> Dict[str, Any]:
        return {}

    def trial_kwargs(self) -> Dict[str, Any]:
        return {}

    def rep(self, prepared: Prepared, spans, workdir, traced=False) -> Outcome:
        with spans.span("engine.build"):
            net = build_network(
                prepared.planes, kind=self.kind, **self.engine_kwargs()
            )
        with spans.span("engine.run"):
            result = run_trial(
                net, prepared.specs, control="off", **self.trial_kwargs()
            )
        if self.kind == "packet":
            layer = _packet_layer(net)
        elif self.kind == "fluid":
            layer = _fluid_layer(net)
        else:
            layer = {**_packet_layer(net.packet), **_fluid_layer(net.fluid)}
            layer["hybrid.bridge_refreshes"] = net.bridge.refreshes
            layer["hybrid.promoted"] = net.fidelity_counts()["packet"]
        layer["routing.pairs"] = prepared.pairs
        return Outcome(
            launched=len(prepared.specs),
            rows=_flow_rows(result.records),
            delivered=net.delivered_bytes,
            layer=layer,
        )


@dataclass
class PacketPermutation(EngineWorkload):
    name: ClassVar[str] = "packet-permutation"
    why: ClassVar[str] = (
        "bulk MPTCP permutation on the packet engine: per-hop event cost "
        "dominates, so event-loop, queue and TCP changes show here"
    )
    kind: ClassVar[str] = "packet"
    seed: int = 0
    switches: int = 32
    degree: int = 6
    hosts_per_switch: int = 4
    n_planes: int = 4
    k: int = 8
    flow_bytes: int = 250 * KB

    def demands(self, pnet):
        rng = random.Random(f"permutation-{self.seed}")
        return [
            (src, dst, self.flow_bytes, 0.0)
            for src, dst in permutation(pnet.hosts, rng)
        ]


@dataclass
class PacketIncast(EngineWorkload):
    name: ClassVar[str] = "packet-incast"
    why: ClassVar[str] = (
        "staggered incast groups on the packet engine: drops and "
        "retransmit timeouts dominate, so drop-path regressions show here"
    )
    kind: ClassVar[str] = "packet"
    seed: int = 0
    switches: int = 32
    degree: int = 6
    hosts_per_switch: int = 4
    n_planes: int = 4
    k: int = 4
    receivers: int = 8
    fan_in: int = 32
    block_bytes: int = 256 * KB
    stagger: float = 2e-3

    def demands(self, pnet):
        rng = random.Random(f"incast-{self.seed}")
        receivers = rng.sample(pnet.hosts, self.receivers)
        flows = []
        for group, receiver in enumerate(receivers):
            others = [h for h in pnet.hosts if h != receiver]
            for sender in rng.sample(others, self.fan_in):
                flows.append(
                    (sender, receiver, self.block_bytes, group * self.stagger)
                )
        return flows


class ArrivalWorkload(EngineWorkload):
    """Poisson WEBSEARCH arrivals at a fixed share of host capacity.

    The loop is open in simulated time only: arrivals follow their
    schedule whatever the network does, while the host runs the trial as
    one batch.  Arrival instants and sizes come from one fixed schedule
    (:data:`TOPOLOGY_SEED`); the benchmark seed draws the endpoints,
    balanced across hosts.
    """

    flows: int
    load: float

    def demands(self, pnet):
        hosts = pnet.hosts
        host_rate = ParallelTopology(pnet.planes).total_host_uplink(hosts[0])
        per_second = (
            self.load * host_rate * len(hosts) / (8 * WEBSEARCH.mean(2001))
        )
        schedule = poisson_flows(
            hosts, WEBSEARCH, self.load, host_rate,
            duration=2.0 * self.flows / per_second, seed=TOPOLOGY_SEED,
        )[: self.flows]
        if len(schedule) < self.flows:
            raise RuntimeError(
                f"schedule produced {len(schedule)} of {self.flows} arrivals"
            )
        # Endpoints come from successive random permutations, each in a
        # random order, so every host sends and receives the same number
        # of flows (within one) and its offered load stays at ``load``.
        # Independent uniform draws overload a few receivers by chance,
        # so the seed would decide how long flows queue, and with that
        # the run's cost: over 20 seeds, the function calls of one
        # fluid-arrivals rep ranged 15% with uniform draws, 9% balanced.
        rng = random.Random(f"arrivals-{self.seed}")
        pairs: List[Tuple[str, str]] = []
        while len(pairs) < len(schedule):
            block = permutation(hosts, rng)
            rng.shuffle(block)
            pairs.extend(block)
        return [
            (src, dst, arrival.size, arrival.arrival)
            for (src, dst), arrival in zip(pairs, schedule)
        ]


@dataclass
class FluidArrivals(ArrivalWorkload):
    name: ClassVar[str] = "fluid-arrivals"
    why: ClassVar[str] = (
        "Poisson WEBSEARCH arrivals on the fluid engine: max-min rate "
        "allocation dominates and the packet core is bypassed"
    )
    kind: ClassVar[str] = "fluid"
    seed: int = 0
    switches: int = 16
    degree: int = 6
    hosts_per_switch: int = 4
    n_planes: int = 4
    k: int = 4
    flows: int = 300
    load: float = 0.5

    def engine_kwargs(self):
        return {"slow_start": True}


@dataclass
class HybridSampled(ArrivalWorkload):
    name: ClassVar[str] = "hybrid-sampled"
    why: ClassVar[str] = (
        "the fluid-arrivals flows with a 5% packet-fidelity sample: the "
        "only workload whose bridge retimes packet queues mid-run"
    )
    kind: ClassVar[str] = "hybrid"
    seed: int = 0
    switches: int = 16
    degree: int = 6
    hosts_per_switch: int = 4
    n_planes: int = 4
    k: int = 4
    flows: int = 200
    load: float = 0.5
    #: Fixed, so every seed promotes the same arrivals (same sizes).
    promotion: str = f"sampled:0.05:{TOPOLOGY_SEED}"

    def engine_kwargs(self):
        return {"slow_start": True}

    def trial_kwargs(self):
        return {"promotion": self.promotion}


@dataclass
class ShardMixed(FlowWorkload):
    name: ClassVar[str] = "shard-mixed"
    why: ClassVar[str] = (
        "plane-sharded packet run with spanning and shard-local flows, "
        "load-aware control and checkpoints: barrier and IPC phases"
    )
    seed: int = 0
    switches: int = 32
    degree: int = 6
    hosts_per_switch: int = 4
    n_planes: int = 4
    k: int = 8
    flow_bytes: int = 500 * KB
    #: One flow in this many spans every plane; the rest stay local.
    span_every: int = 4
    shards: int = 2
    control_interval: float = 1e-3
    checkpoint_every: float = 1e-3

    def demands(self, pnet):
        rng = random.Random(f"shard-{self.seed}")
        return [
            (src, dst, self.flow_bytes, 0.0)
            for src, dst in permutation(pnet.hosts, rng)
        ]

    def paths(self, policy, pnet, index, src, dst):
        if index % self.span_every == 0:
            return policy.select(src, dst, index)
        # Shard-local: one shortest path on each plane of one shard,
        # alternating shards group by group.
        plan = ShardPlan.build(pnet.n_planes, self.shards)
        planes = plan.planes_of_shard[(index // self.span_every) % self.shards]
        return [
            (plane, all_shortest_paths(pnet.planes[plane], src, dst)[0])
            for plane in planes
        ]

    def rep(self, prepared: Prepared, spans, workdir, traced=False) -> Outcome:
        with spans.span("engine.build"):
            checkpoints = pathlib.Path(
                tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
            )
            controller = Controller(
                "load-aware", interval=self.control_interval
            )
        try:
            parent0 = _cpu_seconds(resource.RUSAGE_SELF)
            workers0 = _cpu_seconds(resource.RUSAGE_CHILDREN)
            with spans.span("engine.run"):
                result = run_packet_trial(
                    prepared.planes, prepared.specs,
                    shards=self.shards, backend="shm", control=controller,
                    checkpoint_dir=checkpoints,
                    checkpoint_every=self.checkpoint_every,
                )
            parent_cpu = _cpu_seconds(resource.RUSAGE_SELF) - parent0
            worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - workers0
            saves = sum(1 for d in checkpoints.iterdir() if d.is_dir())
            saved_bytes = sum(
                f.stat().st_size for f in checkpoints.rglob("*") if f.is_file()
            )
        finally:
            shutil.rmtree(checkpoints, ignore_errors=True)
        stats = result.control["stats"]
        rows = _flow_rows(result.records)
        delivered = float(sum(row[3] for row in rows))
        layer = {
            "sim.events.processed": result.events_processed,
            "sim.events.per_mtu": _per_mtu(result.events_processed, delivered),
            "sim.link.drops": result.total_drops,
            "sim.tcp.retransmits": result.total_retransmits,
            "routing.pairs": prepared.pairs,
            "shard.rounds": result.rounds,
            "shard.parent_cpu_s": parent_cpu,
            "shard.worker_cpu_s": worker_cpu,
            "control.ticks": stats["ticks"],
            "control.decisions": stats["decisions"],
            "control.applied": stats["applied"],
            "control.skipped_spanning": stats["skipped_spanning"],
            "ckpt.saves": saves,
            "ckpt.bytes": saved_bytes,
        }
        return Outcome(
            launched=len(prepared.specs),
            rows=rows,
            delivered=delivered,
            layer=layer,
        )


@dataclass
class SweepFig7:
    """Figure 7's LP grid through the experiment runner.

    Set-up solves the serial-low normaliser; each repetition fans the
    heterogeneous plane counts and the homogeneous consistency check out
    over ``jobs`` pool workers with a fresh, empty artifact cache.  The
    grid is the figure's own and does not depend on the seed: LP solve
    time varies strongly between topology instances, and the figure
    fixes its instances.
    """

    name: ClassVar[str] = "sweep-fig7"
    why: ClassVar[str] = (
        "figure 7's LP sweep on 2 pool workers with a cold cache: covers "
        "the LP solver and the runner, and no simulator engine"
    )
    seed: int = 0
    racks: int = 16
    degree: int = 6
    plane_counts: Tuple[int, ...] = (1, 2, 4)
    jobs: int = 2

    def config(self) -> Dict[str, Any]:
        return asdict(self)

    def setup(self, spans) -> Prepared:
        with spans.span("setup.normaliser"):
            base = fig7.base_trial(self.racks, self.degree, TOPOLOGY_SEED)
        grid = dict(racks=self.racks, degree=self.degree, seed=TOPOLOGY_SEED)
        specs = [
            TrialSpec(
                fn="repro.exp.fig7:hetero_trial", key=("hetero", n),
                kwargs=dict(n_planes=n, **grid),
            )
            for n in self.plane_counts
        ] + [
            TrialSpec(
                fn="repro.exp.fig7:homo_check_trial", key=("homo-check",),
                kwargs=dict(n_planes=self.plane_counts[1], **grid),
            )
        ]
        return Prepared(planes=[], specs=specs, normaliser=base)

    def rep(self, prepared: Prepared, spans, workdir, traced=False) -> Outcome:
        # A traced repetition solves in-process: the profiler sees only
        # its own process, and the LP time lives in the trials.
        jobs = 1 if traced else self.jobs
        with spans.span("engine.build"):
            cache = tempfile.mkdtemp(prefix="cache-", dir=workdir)
            # The runner and its pool workers read the cache root here.
            os.environ["PNET_CACHE_DIR"] = cache
        try:
            with spans.span("engine.run"):
                trials = run_trials(prepared.specs, jobs=jobs)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        stats = last_stats()
        return Outcome(
            launched=len(prepared.specs),
            rows=sorted(trials.items()),
            delivered=None,
            layer={
                "exp.trials": stats.n_trials,
                "exp.workers": stats.trial_workers,
                "exp.cache_misses": stats.cache_misses,
            },
        )

    def check(self, prepared: Prepared, outcome: Outcome) -> Dict[str, List]:
        alphas = dict(outcome.rows)
        missing = [s.key for s in prepared.specs if s.key not in alphas]
        failures: Dict[str, List] = {"completion": missing}
        if missing:
            return failures
        base = prepared.normaliser
        check_n = self.plane_counts[1]
        failures["hetero_1"] = (
            [] if alphas[("hetero", 1)] / base == 1.0 else [("hetero", 1)]
        )
        # Homogeneous planes give exactly N x serial-low, up to the LP
        # solver's tolerance.
        failures["homogeneous"] = (
            []
            if math.isclose(alphas[("homo-check",)] / base, check_n,
                            rel_tol=1e-2)
            else [("homo-check",)]
        )
        return failures

    @staticmethod
    def fcts(outcome: Outcome) -> List[float]:
        return []


WORKLOADS = {
    cls.name: cls
    for cls in (
        PacketPermutation,
        PacketIncast,
        FluidArrivals,
        HybridSampled,
        ShardMixed,
        SweepFig7,
    )
}
