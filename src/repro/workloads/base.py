"""Scenario programs: structured workloads as dependency-ordered waves.

A :class:`Scenario` is a deterministic *flow program* generator: given a
P-Net, a path-selection policy, and a seed, it produces a
:class:`ScenarioProgram` -- a set of independent :class:`Chain` objects,
each a list of *waves* of :class:`~repro.core.flowspec.FlowSpec`.  The
execution contract is:

* every chain runs independently of every other chain;
* wave 0 of a chain launches at the chain's ``start_at`` (individual
  specs may carry their own later ``at`` for open-loop arrivals);
* wave ``k+1`` launches when the **last flow of wave k completes**, at
  that flow's completion time -- no flow ever departs before its
  dependency finishes.

That one shape covers the workload families the multipath literature
evaluates (FatPaths; see PAPERS.md): synchronized incast fan-in is one
chain with one wave; a coflow mix is one chain per coflow whose stages
are its waves; a ring/tree all-reduce is one chain whose collective
steps are its waves; a diurnal multi-tenant mix is one chain whose
single wave carries per-flow arrival times.

Generation is pure in ``(scenario knobs, pnet, policy, seed)``: every
random draw comes from named :class:`~repro.ckpt.rng.RngBundle` streams
(the same discipline as ``repro.hybrid.promotion.Sampled``), so the
emitted flow sets are byte-identical across processes, job counts, and
resumes.  Execution is engine-agnostic: :func:`bind` attaches the wave
launcher to any engine's network object (the launcher is a
plain picklable class, so checkpoints capture in-flight programs), and
``repro.workloads.driver.run_scenario`` routes the bound program
through :func:`repro.api.run_trial`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ckpt.rng import RngBundle
from repro.core.flowspec import FlowSpec


class WorkloadError(ValueError):
    """A scenario was mis-parameterised or its program is malformed."""


def record_start(record) -> float:
    """Launch time of a completion record, engine-agnostic.

    Packet records carry ``start``, fluid records ``arrival``.
    """
    start = getattr(record, "start", None)
    return record.arrival if start is None else start


def record_finish(record) -> float:
    """Completion time of a record, engine-agnostic.

    Packet records carry ``finish``, fluid records ``completion``.
    """
    finish = getattr(record, "finish", None)
    return record.completion if finish is None else finish


def wave_tag(chain: str, wave: int, extra: Optional[str] = None) -> str:
    """The canonical record tag ``chain/w<wave>[/extra]``.

    Scenario generators stamp every spec with this so results can be
    grouped back into chains and waves without trusting flow ids (which
    differ across engines for dynamically-launched waves).
    """
    tag = f"{chain}/w{wave}"
    return f"{tag}/{extra}" if extra else tag


def parse_tag(tag: str) -> Tuple[str, int]:
    """``(chain label, wave index)`` of a :func:`wave_tag` string."""
    parts = tag.split("/")
    if len(parts) < 2 or not parts[1].startswith("w"):
        raise WorkloadError(f"not a workload wave tag: {tag!r}")
    return parts[0], int(parts[1][1:])


@dataclass
class Chain:
    """One independent dependency chain of flow waves.

    Attributes:
        label: chain identity (``cf3``, ``ring``, ``tenant1``...); every
            member spec's tag must start with ``<label>/w<wave>``.
        waves: flow waves in dependency order.  Wave 0 specs may carry
            explicit ``at`` times (open-loop arrivals); later waves must
            leave ``at`` unset -- the launcher fills in the barrier time.
        start_at: earliest launch time of wave 0 (specs without ``at``
            get exactly this).
    """

    label: str
    waves: List[List[FlowSpec]]
    start_at: float = 0.0

    def __post_init__(self):
        if not self.waves or not all(self.waves):
            raise WorkloadError(
                f"chain {self.label!r} needs at least one non-empty wave"
            )
        if self.start_at < 0:
            raise WorkloadError(
                f"chain {self.label!r} start_at must be >= 0"
            )
        for wave_idx, wave in enumerate(self.waves):
            for spec in wave:
                chain, wave_no = parse_tag(spec.tag or "")
                if chain != self.label or wave_no != wave_idx:
                    raise WorkloadError(
                        f"spec tagged {spec.tag!r} does not belong in "
                        f"chain {self.label!r} wave {wave_idx}"
                    )
                if wave_idx > 0 and spec.at is not None:
                    raise WorkloadError(
                        f"chain {self.label!r} wave {wave_idx}: only "
                        f"wave 0 may carry explicit arrival times"
                    )

    @property
    def n_flows(self) -> int:
        return sum(len(wave) for wave in self.waves)

    @property
    def total_bytes(self) -> int:
        return sum(int(spec.size) for wave in self.waves for spec in wave)


@dataclass
class ScenarioProgram:
    """Everything one scenario run will launch, fully materialised."""

    scenario: str
    chains: List[Chain]
    #: Free-form generator metadata (knobs, derived sizes) for reports.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        labels = [chain.label for chain in self.chains]
        if len(set(labels)) != len(labels):
            raise WorkloadError(f"duplicate chain labels: {labels}")

    @property
    def n_flows(self) -> int:
        return sum(chain.n_flows for chain in self.chains)

    @property
    def total_bytes(self) -> int:
        return sum(chain.total_bytes for chain in self.chains)

    def all_specs(self) -> List[FlowSpec]:
        """Every spec of every wave, chain by chain (generation order)."""
        return [
            spec
            for chain in self.chains
            for wave in chain.waves
            for spec in wave
        ]

    def to_rows(self) -> List[Dict[str, Any]]:
        """JSON-friendly rows pinning the generated flow set.

        This is what the golden fixtures ``tests/golden/workloads_*.json``
        freeze: endpoints, size, arrival, tag, and subflow paths of every
        flow, in generation order.
        """
        rows = []
        for chain in self.chains:
            for wave_idx, wave in enumerate(chain.waves):
                for spec in wave:
                    rows.append({
                        "chain": chain.label,
                        "wave": wave_idx,
                        "src": spec.src,
                        "dst": spec.dst,
                        "size": int(spec.size),
                        "at": spec.at,
                        "tag": spec.tag,
                        "planes": list(spec.planes),
                    })
        return rows


class Scenario:
    """Base class: a named, deterministic flow-program generator.

    Subclasses implement :meth:`program`; it must be **pure** in
    ``(self, pnet, policy, seed)`` -- all randomness through
    :meth:`stream` -- so the same seed reproduces the same flow set
    byte-for-byte anywhere.
    """

    #: Registry key; subclasses override.
    name = "?"

    def program(self, pnet, policy, seed: int = 0) -> ScenarioProgram:
        """Materialise the full flow program for one run."""
        raise NotImplementedError

    def stream(self, seed: int, purpose: str = "flows"):
        """The scenario's named RNG stream for one purpose.

        Seeded from ``(seed, "workloads.<name>.<purpose>")`` via
        :class:`RngBundle`, so different scenarios (and different
        purposes within one scenario) draw independently even under one
        master seed.
        """
        return RngBundle(seed).stream(f"workloads.{self.name}.{purpose}")

    def describe(self) -> Dict[str, Any]:
        """The scenario's knobs, for reports and ``--help`` style docs."""
        return {
            name: value
            for name, value in sorted(vars(self).items())
            if not name.startswith("_")
        }

    def __repr__(self) -> str:
        knobs = ", ".join(
            f"{k}={v!r}" for k, v in self.describe().items()
        )
        return f"{type(self).__name__}({knobs})"


class WaveLauncher:
    """Submits a chain's waves in dependency order on a live network.

    Wave 0 is submitted by :func:`bind`; every spec gets an
    ``on_complete`` hook (a bound-method partial, so in-flight programs
    pickle for checkpointing) that counts completions and, when a wave
    fully drains, submits the next wave at the barrier time -- the
    maximum completion time seen in the finished wave.
    """

    def __init__(self, net, chain: Chain):
        self.net = net
        self.chain = chain
        self.wave_idx = 0
        self.pending = len(chain.waves[0])
        self.barrier = chain.start_at

    def wrap(self, spec: FlowSpec) -> FlowSpec:
        """A copy of ``spec`` whose completion feeds the wave barrier."""
        return spec.replace(
            on_complete=functools.partial(self._flow_done, spec.on_complete)
        )

    def _flow_done(self, user_cb, record) -> None:
        finish = record_finish(record)
        if finish > self.barrier:
            self.barrier = finish
        self.pending -= 1
        if self.pending == 0:
            self._launch_next()
        if user_cb is not None:
            user_cb(record)

    def _launch_next(self) -> None:
        self.wave_idx += 1
        if self.wave_idx >= len(self.chain.waves):
            return
        wave = self.chain.waves[self.wave_idx]
        self.pending = len(wave)
        at = self.barrier
        for spec in wave:
            self.net.add_flow(spec=self.wrap(spec).replace(at=at))


def bind(program: ScenarioProgram, net) -> List[FlowSpec]:
    """Wave-0 specs of every chain, wired to launch the rest.

    The returned specs go straight to :func:`repro.api.run_trial` (or
    any engine's ``add_flow``); as they complete, each chain's
    :class:`WaveLauncher` injects the following waves at their barrier
    times.  Chains with a single wave get no launcher at all, so purely
    static programs add zero callback overhead.
    """
    first_wave: List[FlowSpec] = []
    for chain in program.chains:
        if len(chain.waves) == 1:
            launcher = None
        else:
            launcher = WaveLauncher(net, chain)
        for spec in chain.waves[0]:
            if spec.at is None:
                spec = spec.replace(at=chain.start_at)
            if launcher is not None:
                spec = launcher.wrap(spec)
            first_wave.append(spec)
    return first_wave


def chain_stats(
    program: ScenarioProgram, records: Sequence[Any]
) -> Dict[str, Dict[str, float]]:
    """Per-chain timing from completion records.

    Returns ``label -> {start, finish, completion_time, flows, bytes}``;
    ``completion_time`` is last-finish minus the chain's ``start_at``
    (for a coflow this is its CCT, for a collective the collective
    time).  Raises if any chain is missing records (an unfinished run).
    """
    by_chain: Dict[str, List[Any]] = {}
    for record in records:
        label, __ = parse_tag(record.tag or "")
        by_chain.setdefault(label, []).append(record)
    out: Dict[str, Dict[str, float]] = {}
    for chain in program.chains:
        recs = by_chain.get(chain.label, [])
        if len(recs) != chain.n_flows:
            raise WorkloadError(
                f"chain {chain.label!r}: {len(recs)}/{chain.n_flows} "
                f"flows completed"
            )
        finishes = [record_finish(r) for r in recs]
        out[chain.label] = {
            "start": chain.start_at,
            "finish": max(finishes),
            "completion_time": max(finishes) - chain.start_at,
            "flows": float(len(recs)),
            "bytes": float(sum(r.size for r in recs)),
        }
    return out
