"""Stable high-level facade over the P-Net stack.

Three calls cover the common workflow -- build a network, attach
telemetry, run a batch of flows -- without importing simulator modules
directly::

    from repro import FlowSpec, api

    obs = api.attach_telemetry(trace=True, metrics_path="metrics.jsonl")
    net = api.build_network(pnet.planes, kind="hybrid")
    result = api.run_trial(net, [
        FlowSpec(src="h0", dst="h1", size=10**6, paths=paths),
    ], promotion="sampled:0.1")
    print(result.monitor.report())
    obs.close()

``kind=`` names one of three engines -- ``"packet"``, ``"fluid"`` and
``"hybrid"`` -- and each engine answers for itself through the same few
members: its ``kind``, ``run(until=...)``, ``queue_stats()``, records
that carry their ``fidelity``, and for the control loop and fault
injection ``control_rows()`` and ``resteer()`` (DESIGN.md §3 lists
them).  :func:`run_trial` is the single run surface for all three -- it
threads ``promotion=`` (hybrid), ``checkpoint_*`` and the horizon
uniformly and always returns the one documented :class:`TrialResult`
shape.

The facade is intentionally small and **stable**: experiment code and
external users should prefer it over the underlying constructors, whose
signatures may still evolve (they live in :mod:`repro.sim.network`,
:mod:`repro.fluid.flowsim` and :mod:`repro.hybrid.engine`, not at the
``repro.sim``/``repro.fluid`` package level).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.config import RunConfig, current
from repro.core.flowspec import FlowSpec
from repro.core.monitoring import NetworkMonitor
from repro.core.pnet import PNet
from repro.fluid.flowsim import FluidSimulator
from repro.hybrid.engine import HybridSimulator
from repro.hybrid.promotion import resolve_policy
from repro.obs import (
    CsvSink,
    JsonlSink,
    Registry,
    Tracer,
    set_registry,
)
from repro.sim.network import PacketNetwork
from repro.topology import ParallelTopology, Topology

#: Anything that names a set of dataplanes.
PlanesLike = Union[PNet, ParallelTopology, Sequence[Topology], Topology]

Network = Union[PacketNetwork, FluidSimulator, HybridSimulator]


def _as_planes(planes: PlanesLike) -> List[Topology]:
    if isinstance(planes, PNet):
        return list(planes.planes)
    if isinstance(planes, ParallelTopology):
        return list(planes.planes)
    if isinstance(planes, Topology):
        return [planes]
    return list(planes)


#: ``kind`` -> engine class, for :func:`build_network`.
_ENGINES = {
    cls.kind: cls for cls in (PacketNetwork, FluidSimulator, HybridSimulator)
}


def attach_telemetry(
    trace: bool = False,
    trace_capacity: Optional[int] = None,
    verbose: bool = False,
    metrics_path: Optional[str] = None,
    trace_path: Optional[str] = None,
    csv: bool = False,
    install: bool = True,
) -> Registry:
    """Create (and by default install) a live telemetry registry.

    Args:
        trace: attach a bounded event :class:`~repro.obs.Tracer`.
        trace_capacity: tracer ring size (default
            :data:`repro.obs.DEFAULT_CAPACITY`).
        verbose: also trace per-packet queue-depth samples (expensive).
        metrics_path: write the metric snapshot here on ``close()``.
        trace_path: write trace events here on ``close()``.
        csv: emit CSV instead of JSONL for the paths above.
        install: make this the process-default registry
            (:func:`repro.obs.set_registry`), so components built
            without an explicit ``obs=`` pick it up.

    Returns:
        The :class:`repro.obs.Registry`.  Call ``close()`` when done to
        flush sinks; call ``repro.obs.set_registry(None)`` (or use
        :func:`repro.obs.use_registry`) to detach.
    """
    tracer = None
    if trace or trace_path is not None or verbose:
        kwargs: Dict[str, Any] = {"verbose": verbose}
        if trace_capacity is not None:
            kwargs["capacity"] = trace_capacity
        tracer = Tracer(**kwargs)
    sink_cls = CsvSink if csv else JsonlSink
    metric_sinks = [sink_cls(metrics_path)] if metrics_path else []
    trace_sinks = [sink_cls(trace_path)] if trace_path else []
    registry = Registry(
        tracer=tracer, metric_sinks=metric_sinks, trace_sinks=trace_sinks
    )
    if install:
        set_registry(registry)
    return registry


def build_network(
    planes: PlanesLike,
    kind: str = "packet",
    obs: Optional[Registry] = None,
    **kwargs: Any,
) -> Network:
    """Build a simulator over the given dataplanes.

    Args:
        planes: a :class:`PNet`, :class:`ParallelTopology`, single
            :class:`Topology`, or sequence of topologies.
        kind: ``"packet"`` (:class:`PacketNetwork`), ``"fluid"``
            (:class:`FluidSimulator`) or ``"hybrid"``
            (:class:`HybridSimulator`).
        obs: telemetry registry; defaults to the process-wide one.
        **kwargs: forwarded to the engine constructor
            (``queue_packets``, ``ecn_threshold``, ``slow_start``,
            ``promotion``, ...).
    """
    try:
        cls = _ENGINES[kind]
    except KeyError:
        raise ValueError(
            f"unknown network kind {kind!r} ({'|'.join(_ENGINES)})"
        ) from None
    return cls(_as_planes(planes), obs=obs, **kwargs)


#: Schema identifier stamped into :meth:`TrialResult.to_json`.
TRIAL_RESULT_SCHEMA = "repro.TrialResult/1"


@dataclass
class TrialResult:
    """What one :func:`run_trial` produced -- same shape for every engine.

    Attributes:
        records: per-flow completion records, in completion order
            (``SimFlowRecord`` or ``FlowRecord`` depending on the
            engine that ran each flow; hybrid merges both kinds).
        monitor: merged per-plane view of the trial.
        metrics: the registry's deterministic snapshot rows (empty when
            telemetry is disabled).
        fidelity: flow id -> ``"packet"`` | ``"fluid"`` for every
            completed flow (pure engines report their own fidelity for
            all flows).
        engine: ``kind`` of the engine that ran the trial.
        meta: engine metadata (plane count, record count, promotion
            split for hybrid runs, ...).
    """

    records: List[Any]
    monitor: NetworkMonitor
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    fidelity: Dict[int, str] = field(default_factory=dict)
    engine: str = ""
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON rendering of the result.

        Stable across runs and Python versions for deterministic
        engines: keys are sorted, records are normalised to one field
        vocabulary regardless of engine (``start``/``finish``/``fct``),
        floats round-trip by ``repr``.  Pinned by the golden fixture
        ``tests/golden/trial_result.json``.
        """
        payload = {
            "schema": TRIAL_RESULT_SCHEMA,
            "engine": self.engine,
            "meta": self.meta,
            "fidelity": {str(k): v for k, v in self.fidelity.items()},
            "records": [self._record_row(r) for r in self.records],
            "monitor": {
                str(plane): {
                    "flows": stats.flows,
                    "bytes_carried": stats.bytes_carried,
                    "packets_forwarded": stats.packets_forwarded,
                    "drops": stats.drops,
                    "fcts": list(stats.fcts),
                }
                for plane, stats in sorted(self.monitor.stats.items())
            },
            "metrics": self.metrics,
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    def _record_row(self, record: Any) -> Dict[str, Any]:
        start = getattr(record, "start", None)
        if start is None:
            start = record.arrival
        finish = getattr(record, "finish", None)
        if finish is None:
            finish = record.completion
        row = {
            "flow_id": record.flow_id,
            "src": record.src,
            "dst": record.dst,
            "size": record.size,
            "start": start,
            "finish": finish,
            "fct": record.fct,
            "n_subflows": record.n_subflows,
            "planes": list(record.planes),
            "tag": record.tag,
            "fidelity": self.fidelity.get(record.flow_id, self.engine),
        }
        for extra in ("retransmits", "packets_sent"):
            value = getattr(record, extra, None)
            if value is not None:
                row[extra] = value
        return row


def run_trial(
    network: Network,
    flows: Iterable[FlowSpec],
    until: float = math.inf,
    promotion: Optional[Any] = None,
    control: Optional[Any] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[float] = None,
    checkpoint_keep_last: Optional[int] = None,
    on_checkpoint: Optional[Callable[[Any], None]] = None,
) -> TrialResult:
    """Launch ``flows`` on ``network``, run it, and merge the results.

    The single run surface for every engine: every spec is submitted
    via the keyword-only ``add_flow(spec=...)`` API, the simulation
    runs to completion (or ``until``), and per-plane statistics merge
    into a :class:`NetworkMonitor` inside one :class:`TrialResult`.

    ``promotion`` (a :class:`repro.hybrid.PromotionPolicy`, probability,
    or policy string) installs the promotion policy on a hybrid network
    before submission; per-flow ``FlowSpec.fidelity`` hints override it
    flow by flow.  Pure engines reject ``promotion=`` (the flows already
    run at a fixed fidelity).

    ``control`` (a :class:`repro.control.Controller`, a
    :class:`~repro.control.ResteerPolicy`, or a registered policy name
    like ``"load-aware"``) attaches the adaptive control loop to any of
    the three engines before the flows launch; its summary lands in
    ``meta["control"]``.  ``control=None`` (the default) consults
    ``PNET_CONTROL_POLICY`` (the ``--control`` CLI flag); ``"off"``
    forces control off regardless of the environment.  With control
    off nothing is attached and results are byte-identical to builds
    without the control plane.

    With ``checkpoint_dir`` and ``checkpoint_every`` the run writes
    :mod:`repro.ckpt` snapshots every that many simulated seconds;
    :func:`resume_trial` continues from the newest one with results
    byte-identical to an uninterrupted run.  This works for all three
    engines (hybrid snapshots carry both sub-engines, the bridge, and
    the promotion policy in one object graph).  The other
    ``checkpoint_*`` arguments and ``on_checkpoint`` need
    ``checkpoint_every``; without it they raise ``ValueError`` before
    any flow is submitted.
    """
    if getattr(network, "kind", None) not in _ENGINES:
        raise TypeError(
            f"{type(network).__name__} is not a simulation engine "
            f"(kinds: {'|'.join(_ENGINES)})"
        )
    _check_checkpoint_args(
        checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        checkpoint_keep_last=checkpoint_keep_last,
        on_checkpoint=on_checkpoint,
    )
    if checkpoint_every is not None and checkpoint_dir is None:
        raise ValueError("checkpoint_every requires checkpoint_dir")
    if promotion is not None:
        if network.kind != "hybrid":
            raise ValueError(
                f"promotion= requires a hybrid network, "
                f"got kind={network.kind!r}"
            )
        network.promotion = resolve_policy(promotion)
    if control is None:
        # --control / PNET_CONTROL_POLICY; unset is off, byte-identical
        # to builds without the control plane.
        control = current().control_policy
    elif isinstance(control, str):  # a name needs no environment
        control = RunConfig(control_policy=control).control_policy
    if control is not None:
        from repro.control import as_controller

        controller = as_controller(control)
        controller.attach(network)
        # The attached loop rides the object graph, so checkpoints and
        # resume_trial need no extra plumbing.
        network._controller = controller
    for spec in flows:
        network.add_flow(spec=spec)
    if checkpoint_every is not None:
        from repro.ckpt import run_checkpointed

        run_checkpointed(
            network,
            checkpoint_dir,
            checkpoint_every,
            until=until,
            keep_last=checkpoint_keep_last,
            on_checkpoint=on_checkpoint,
        )
    else:
        network.run(until=until)
    return _finish_trial(network)


def resume_trial(
    checkpoint_dir,
    until: float = math.inf,
    checkpoint_every: Optional[float] = None,
    checkpoint_keep_last: Optional[int] = None,
    on_checkpoint: Optional[Callable[[Any], None]] = None,
) -> TrialResult:
    """Continue a checkpointed :func:`run_trial` to completion.

    Loads the newest valid checkpoint under ``checkpoint_dir`` (partial
    directories from a killed run are skipped), resumes the simulation,
    and returns the same :class:`TrialResult` -- records byte-identical
    to the run never having stopped.  Pass ``checkpoint_every`` to keep
    checkpointing on the way; ``checkpoint_keep_last`` and
    ``on_checkpoint`` need it.
    """
    from repro.ckpt import restore, run_checkpointed

    _check_checkpoint_args(
        checkpoint_every,
        checkpoint_keep_last=checkpoint_keep_last,
        on_checkpoint=on_checkpoint,
    )
    checkpoint = restore(checkpoint_dir)
    network = checkpoint.network
    if checkpoint_every is not None:
        run_checkpointed(
            network,
            checkpoint_dir,
            checkpoint_every,
            until=until,
            injector=checkpoint.injector,
            rng=checkpoint.rng,
            keep_last=checkpoint_keep_last,
            on_checkpoint=on_checkpoint,
        )
    else:
        network.run(until=until)
    return _finish_trial(network)


def _check_checkpoint_args(checkpoint_every, **given: Any) -> None:
    """Refuse checkpoint arguments that would be silently ignored."""
    if checkpoint_every is not None:
        return
    unused = [name for name, value in given.items() if value is not None]
    if unused:
        raise ValueError(f"{', '.join(unused)} requires checkpoint_every")


def _finish_trial(network: Network) -> TrialResult:
    records = list(network.records)
    meta: Dict[str, Any] = {"n_planes": len(network.planes)}
    if network.kind == "hybrid":
        meta["fidelity_counts"] = network.fidelity_counts()
        meta["bridge_refreshes"] = network.bridge.refreshes
    meta["n_records"] = len(records)
    controller = getattr(network, "_controller", None)
    if controller is not None:
        # Key only present when control was attached, so control-off
        # results stay byte-identical to pre-control goldens.
        meta["control"] = {
            "fingerprint": controller.fingerprint(),
            "stats": controller.stats.as_dict(),
        }
    obs = network.obs
    return TrialResult(
        records=records,
        monitor=NetworkMonitor.from_network(network),
        metrics=obs.snapshot(include_wallclock=False) if obs.enabled else [],
        fidelity={r.flow_id: r.fidelity for r in records},
        engine=network.kind,
        meta=meta,
    )


# --- experiment-scale surface ------------------------------------------
#
# Sweeps are part of the stable facade too: TrialSpec grids run through
# run_trials locally (PNET_JOBS), with sweep checkpoints (PNET_CKPT_*),
# or across a run farm (farm= / PNET_FARM_INVENTORY; see repro.farm),
# each under one resolved repro.config.RunConfig.
from repro.exp.runner import (  # noqa: E402  (facade re-export)
    RunStats,
    TrialSpec,
    run_trials,
)

__all__ = [
    "FlowSpec",
    "Network",
    "PlanesLike",
    "RunStats",
    "TrialResult",
    "TrialSpec",
    "attach_telemetry",
    "build_network",
    "resume_trial",
    "run_trial",
    "run_trials",
]
