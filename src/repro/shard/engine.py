"""The epoch-lockstep shard engine.

One engine process drives one worker per plane shard.  Packet-level
runs advance in *epochs* of simulated time: every worker runs its
event loop to the same barrier ``t``, exports a per-spanning-connection
coupling digest (subflow cwnd/RTT, local pool, ACK progress), and the
engine folds the digests into next-epoch updates -- epoch-stale LIA
coupling views, a deterministic largest-remainder rebalance of each
connection's shared send-buffer pool, and completion/finalize notices.
The epoch length (> 0) is the staleness bound and the one barrier
spacing: ``epoch -> 0`` converges to the serial coupled behaviour.  The
shard count, epoch and channel backend are :func:`run_packet_trial`'s
arguments, checked at entry; no run-wide setting changes them.

Every shard count runs this one loop.  One shard is every plane in one
in-process worker that writes straight into the caller's registry:
with no control and no checkpoints it free-runs to the horizon in one
``net.run`` call -- a plain :class:`~repro.sim.network.PacketNetwork`
run -- and with them it barriers, checkpoints and is steered exactly as
two shards are.

:func:`run_packet_trial` is a sequence of barrier phases, one function
each: :func:`_plan` (classify, split, worker configs, restore), then
per barrier :func:`_control` (sample, decide, apply), :func:`_couple`
(completion, rebalance, LIA views -- engine state only),
:func:`_target` (free-run promotion, next epoch, idle jump, clamps),
:func:`_exchange` (post to all, then collect from all) and
:func:`_checkpoint`, and finally :func:`_merge`.  The engine process's
wall seconds in each phase come back as
:attr:`ShardResult.phase_seconds`.

Determinism: worker digests are merged in shard-index order, pool
splits use integer largest-remainder arithmetic, records are sorted by
global flow id, and per-shard telemetry registries are absorbed into
the caller's registry in shard order -- so results are independent of
scheduling noise and identical across the ``local`` (in-process) and
``shm`` (one worker process per shard, over a pipe each) channel
backends.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.ckpt.snapshot import check_args
from repro.ckpt.store import (
    CheckpointError, latest, next_step, read_manifest, read_payload,
    step_dir, write_checkpoint,
)
from repro.config import _choice, _integer, _real, current
from repro.core.flowspec import FlowSpec
from repro.core.pnet import PNet
from repro.obs import get_registry
from repro.shard.channel import LocalChannel, ProcessChannel
from repro.shard.coupling import largest_remainder, lia_terms, split_bytes
from repro.shard.partition import ShardPlan, classify
from repro.shard.worker import WorkerConfig, build_worker, handle_message
from repro.sim.network import PacketNetwork, SimFlowRecord, publish_flow
from repro.topology.graph import Topology

#: Epoch barrier spacing (simulated seconds): a handful of fabric RTTs,
#: long enough to amortise barriers, short enough to keep LIA coupling
#: staleness small (tests/test_shard_coupling.py enforces the bound).
DEFAULT_EPOCH = 1e-4

#: Channel backends: the in-process reference and one worker process
#: per shard (a name kept from an earlier shared-memory transport).
BACKENDS = ("local", "shm")

#: Hard cap on barrier rounds -- a stuck spanning connection raises
#: instead of spinning forever.
MAX_ROUNDS = 1_000_000

#: The barrier phases :attr:`ShardResult.phase_seconds` times, in run
#: order.
PHASES = (
    "plan", "control", "couple", "target", "exchange", "checkpoint", "merge",
)


class ShardSafetyError(RuntimeError):
    """The requested run cannot be sharded without changing results."""


#: ``meta["kind"]`` of checkpoints the barrier loop writes, at every
#: shard count: one payload per worker (the worker encodes itself at an
#: epoch barrier) plus ``engine.pkl`` holding the barrier-loop state.
KIND_SHARD = "shard"


def _write_shard_checkpoint(root, blobs, state, epoch, backend) -> pathlib.Path:
    """Write one ``kind="shard"`` checkpoint: worker blobs + engine state.

    ``blobs`` are the encoded workers in shard order, taken at a
    barrier where every worker is quiescent (its event loop stopped at
    ``state["t"]``), so together with the engine's own loop ``state``
    they form a globally consistent cut.  The container write is
    manifest-last, so a crash mid-write is indistinguishable from no
    checkpoint.
    """
    payloads = {
        f"shard-{shard:02d}.pkl": blob for shard, blob in enumerate(blobs)
    }
    payloads["engine.pkl"] = pickle.dumps(
        state, protocol=pickle.HIGHEST_PROTOCOL
    )
    meta = {
        "kind": KIND_SHARD,
        "engine": "packet",
        "t": state["t"],
        "rounds": state["rounds"],
        "n_shards": len(blobs),
        "epoch": epoch,
        "backend": backend,
    }
    return write_checkpoint(step_dir(root, next_step(root)), payloads, meta)


def _load_shard_checkpoint(
    root, n_shards: int, epoch: float, controlled: bool
) -> Optional[Dict[str, Any]]:
    """The newest valid shard checkpoint under ``root`` (None if empty).

    A simulator snapshot (``kind="sim"``: ``run_trial``'s, or a
    one-shard run's from before one shard ran the barrier loop) is
    refused by its kind.  The resuming run must keep the shard count --
    worker pickles are per-shard slices of the workload and cannot be
    re-partitioned -- the epoch, which places every barrier and so the
    coupling the rest of the run sees, and the control setting
    (``controlled``): a resume can neither start control mid-run nor
    drop it.
    """
    chosen = latest(root)
    if chosen is None:
        return None
    meta = read_manifest(chosen).get("meta", {})
    if meta.get("kind") != KIND_SHARD:
        raise CheckpointError(
            f"{chosen} is a {meta.get('kind')!r} checkpoint, not a shard-"
            "engine one; resume it through its own entry point"
        )
    if meta.get("n_shards") != n_shards:
        raise CheckpointError(
            f"{chosen} was taken with {meta.get('n_shards')} shard(s); "
            f"this run has {n_shards} -- resume must keep the shard count"
        )
    if meta.get("epoch") != epoch:
        raise CheckpointError(
            f"{chosen} was taken with epoch={meta.get('epoch')!r}; this "
            f"run has epoch={epoch!r} -- resume must keep the epoch"
        )
    engine = pickle.loads(read_payload(chosen, "engine.pkl"))
    if (engine.get("control") is not None) != controlled:
        had = "without" if controlled else "with"
        raise CheckpointError(
            f"{chosen} was written by a run {had} control; resume it "
            f"{had} control="
        )
    return {
        "workers": [
            read_payload(chosen, f"shard-{shard:02d}.pkl")
            for shard in range(n_shards)
        ],
        "engine": engine,
    }


@dataclass
class ShardResult:
    """Merged outcome of a :func:`run_packet_trial` run.

    ``records`` are sorted by global flow id (submission order), the
    one ordering every shard count produces identically.
    """

    records: List[Any]
    n_shards: int
    epoch: float
    backend: str
    rounds: int
    events_processed: int
    plane_totals: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: This call's barriers as ``[(t, jumped), ...]``, from the resume
    #: barrier on a resumed call: ``jumped`` marks idle jumps past the
    #: next epoch, which are exact (all coupled workers idle).  A
    #: resumed call saw fewer, so the trace takes no part in equality.
    barriers: List[Tuple[float, bool]] = field(
        default_factory=list, compare=False
    )
    #: Adaptive-control summary (``{"fingerprint": ..., "stats": ...}``)
    #: when the run had ``control=``; None otherwise.
    control: Optional[Dict[str, Any]] = None
    #: The engine process's wall seconds per barrier phase, keyed by
    #: :data:`PHASES` (``plan`` includes starting the workers; a phase
    #: with nothing to do reads 0.0).  Wall time is not a result, so it
    #: takes no part in equality.
    phase_seconds: Dict[str, float] = field(
        default_factory=dict, compare=False
    )

    @property
    def total_drops(self) -> int:
        return sum(t.get("drops", 0) for t in self.plane_totals.values())

    @property
    def total_retransmits(self) -> int:
        return sum(getattr(r, "retransmits", 0) for r in self.records)

    @property
    def fcts(self) -> List[float]:
        return [r.fct for r in self.records]


def _make_channels(
    configs: List[WorkerConfig], backend: str, timeout: Optional[float]
):
    if backend == "local":
        return [
            LocalChannel(build_worker(config), handle_message)
            for config in configs
        ]
    channels = []
    try:
        for config in configs:
            channels.append(ProcessChannel(config, timeout))
    except BaseException:
        _close_all(channels)
        raise
    return channels


def _close_all(channels) -> None:
    for channel in channels:
        try:
            channel.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


def _broadcast(channels, message) -> List[Any]:
    """Post ``message`` to every worker, then collect every reply's
    payload, in shard order."""
    for channel in channels:
        channel.post(message)
    return [channel.collect()[1] for channel in channels]


class _SpanningState:
    """Engine-side tracking of one spanning connection."""

    __slots__ = ("gid", "spec", "shards", "complete", "record", "prev_acked")

    def __init__(self, gid: int, spec: FlowSpec, shards: Tuple[int, ...]):
        self.gid = gid
        self.spec = spec
        self.shards = shards
        self.complete = False
        self.record: Optional[SimFlowRecord] = None
        #: ACK progress per shard at the previous barrier -- the deltas
        #: are the measured per-shard throughput the rebalance targets.
        self.prev_acked: List[int] = [0] * len(shards)


@dataclass
class _Run:
    """The state the barrier phases share: the run's options, its plan,
    and the loop state a checkpoint captures (``t``, ``rounds``,
    ``digests``, ``spanning``, ``shares`` and the driver's state)."""

    plan: ShardPlan
    epoch: float
    until: float
    backend: str
    checkpoint_dir: Any = None
    checkpoint_every: Optional[float] = None
    barriers: List[Tuple[float, bool]] = field(default_factory=list)
    spanning_gids: List[int] = field(default_factory=list)
    spanning: Dict[int, _SpanningState] = field(default_factory=dict)
    shares: Dict[int, Dict[int, int]] = field(default_factory=dict)
    driver: Optional[Any] = None
    channels: List[Any] = field(default_factory=list)
    digests: Optional[List[Dict[str, Any]]] = None
    t: float = 0.0
    rounds: int = 0
    #: Free-running shards; their last reply is collected at shutdown.
    freed: Set[int] = field(default_factory=set)
    ckpt_next: float = math.inf
    phase_seconds: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASES, 0.0)
    )

    @contextlib.contextmanager
    def timed(self, phase: str):
        """Add the wall seconds of the ``with`` body to ``phase``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[phase] += time.perf_counter() - started


@dataclass
class _Step:
    """The target phase's decision: ``free`` shards start free-running,
    and ``need`` shards run to ``t_next`` (None ends the loop)."""

    free: List[int]
    t_next: Optional[float] = None
    need: List[int] = field(default_factory=list)
    jumped: bool = False


def _next_checkpoint(t: float, every: Optional[float]) -> float:
    """The first checkpoint instant strictly after ``t``."""
    if every is None:
        return math.inf
    return (math.floor(t / every) + 1) * every


def run_packet_trial(
    planes: Union[PNet, Sequence[Topology]],
    specs: Sequence[FlowSpec],
    *,
    shards: int = 1,
    epoch: float = DEFAULT_EPOCH,
    backend: str = "shm",
    until: float = math.inf,
    obs=None,
    checkpoint_dir=None,
    checkpoint_every: Optional[float] = None,
    resume: bool = False,
    control: Optional[Any] = None,
    **sim_kwargs: Any,
) -> ShardResult:
    """Run a packet-level trial, sharded by plane.

    Args:
        planes: the dataplanes (or a :class:`PNet`).
        specs: flows in submission order; their position is the global
            flow id on the returned records.
        shards: worker count (clamped to the plane count).  One shard
            runs every plane in one in-process worker on the caller's
            registry: records, telemetry and trace events are a plain
            :class:`~repro.sim.network.PacketNetwork` run's.
        epoch: barrier spacing in simulated seconds (> 0).  Only
            spanning MPTCP connections feel it.
        backend: ``"local"`` (in-process reference) or ``"shm"``
            (one worker process per shard) channel backend; results
            are byte-identical across the two.  One shard always runs
            in-process and reports ``"local"``.
        until: simulated-time horizon (default: run to completion).
        obs: telemetry registry absorbing the per-shard registries in
            shard order (one shard writes into it directly); defaults
            to the process-wide registry.
        checkpoint_dir: root for ``repro.ckpt`` snapshots.  With
            ``checkpoint_every``, a checkpoint is written at the first
            epoch barrier at or past each multiple of that many
            simulated seconds (workers are quiescent at barriers, so
            the cut is globally consistent); without it or ``resume``
            it raises ``ValueError`` at entry.  The run prunes nothing:
            ``repro ckpt prune`` does.
        checkpoint_every: checkpoint spacing in simulated seconds.
        resume: load the newest valid checkpoint under
            ``checkpoint_dir`` and continue from its barrier; a fresh
            start when none exists.  The shard count, the epoch and
            whether ``control`` is given must match the checkpointed
            run (``CheckpointError`` before any worker starts).
        control: a :class:`repro.control.Controller`, policy object, or
            policy name enabling the adaptive control plane, driven at
            epoch barriers at every shard count (sample + apply travel
            as extra barrier messages); its ``control.*`` counters
            reach ``obs`` when the run merges.  A controller drives one
            run: a reused one raises ``RuntimeError`` before any worker
            starts.
        sim_kwargs: forwarded to ``PacketNetwork`` (queue_packets, mss,
            min_rto, ecn_threshold).

    Raises:
        ConfigError: a bad ``shards``, ``epoch`` or ``backend``, or a
            bad or removed ``PNET_*`` variable, before any worker
            starts.
        TypeError: a keyword neither this function nor
            ``PacketNetwork`` takes, before any worker starts.
        ShardSafetyError: multi-shard run with completion callbacks
            (closed-loop workloads cannot shard) or non-integer
            spanning flow sizes; such a workload runs with ``shards=1``.
        ShardWorkerError: a worker failed, at any shard count; it
            carries the worker-side traceback.
    """
    # The run config's checks name a bad argument, and resolving the
    # config fails a stale or bad PNET_* variable, before any worker.
    shards = _integer(shards, "shards")
    epoch = _real(0.0, strict=True)(epoch, "epoch")
    _choice(*BACKENDS)(backend, "backend")
    timeout = current().shard_timeout
    check_args(checkpoint_every, checkpoint_dir, resume=resume)
    planes = (planes if isinstance(planes, PNet) else PNet(planes)).planes
    # A keyword the engine does not take is a TypeError here, not a
    # ShardWorkerError from inside a worker process.
    inspect.signature(PacketNetwork).bind(planes, **sim_kwargs)
    specs = list(specs)
    obs = obs if obs is not None else get_registry()
    plan = ShardPlan.build(len(planes), shards)
    run = _Run(
        plan=plan, epoch=epoch, until=until,
        backend=backend if plan.n_shards > 1 else "local",
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )
    try:
        with run.timed("plan"):
            configs = _plan(
                run, planes, specs, obs, sim_kwargs, control, resume,
            )
            run.channels = _make_channels(configs, run.backend, timeout)
            if run.digests is None:
                run.digests = _broadcast(run.channels, ("digest",))
        while True:
            if run.driver is not None and run.driver.due(run.t):
                with run.timed("control"):
                    _control(run)
            with run.timed("couple"):
                updates = _couple(run)
            with run.timed("target"):
                step = _target(run, updates)
            with run.timed("exchange"):
                _exchange(run, step, updates)
            if step.t_next is None:
                break
            if run.t >= run.ckpt_next:
                with run.timed("checkpoint"):
                    _checkpoint(run)
        with run.timed("merge"):
            result = _merge(run, obs)
        result.phase_seconds = run.phase_seconds
        return result
    finally:
        _close_all(run.channels)


def _plan(
    run: _Run, planes, specs, obs, sim_kwargs, control, resume,
) -> List[WorkerConfig]:
    """Plan phase: classify and split the flows, build the worker
    configs, and load the checkpoint a resumed run continues from.

    Raises :class:`ShardSafetyError` for a workload that cannot shard.
    """
    plan = run.plan
    for gid, spec in enumerate(specs):
        if spec.on_complete is not None and plan.n_shards > 1:
            raise ShardSafetyError(
                f"flow {gid} ({spec.src}->{spec.dst}) carries a completion "
                "callback, which cannot run on more than one shard: the "
                "engine only sees flow completion at epoch barriers, so "
                "closed-loop workloads run on one shard -- pass shards=1"
            )
    restored = (
        _load_shard_checkpoint(
            run.checkpoint_dir, plan.n_shards, run.epoch,
            control is not None,
        )
        if resume else None
    )

    local, run.spanning_gids = classify(specs, plan)
    for gid in run.spanning_gids:
        spec = specs[gid]
        size = int(spec.size)
        shard_ids = plan.shards_of(spec)
        if size != spec.size:
            planes_used = sorted({p for p, __ in spec.paths})
            raise ShardSafetyError(
                f"spanning flow {gid} ({spec.src}->{spec.dst}) places "
                f"subflows on plane(s) {', '.join(map(str, planes_used))}, "
                f"spanning shard(s) {', '.join(map(str, shard_ids))}, but "
                f"has non-integer size {spec.size!r}: the shared pool "
                "splits whole bytes across shards -- round the size, "
                "or pass shards=1"
            )
        counts = [
            len(plan.local_paths(spec, shard)) for shard in shard_ids
        ]
        run.spanning[gid] = _SpanningState(gid, spec, shard_ids)
        run.shares[gid] = dict(zip(shard_ids, split_bytes(size, counts)))

    if control is not None:
        from repro.control import as_controller
        from repro.control.sharded import ShardControlDriver

        run.driver = ShardControlDriver(
            as_controller(control), planes, plan.planes_of_shard, local,
            run.spanning_gids,
        )

    configs = []
    for shard in range(plan.n_shards):
        owned = set(local[shard])
        slices = {
            gid: share[shard]
            for gid, share in run.shares.items()
            if shard in share
        }
        configs.append(WorkerConfig(
            shard=shard,
            plan=plan,
            planes=planes,
            sim_kwargs=dict(sim_kwargs),
            entries=[
                (gid, spec) for gid, spec in enumerate(specs)
                if gid in owned or gid in slices
            ],
            spanning_share=slices,
            collect_obs=obs.enabled,
            # One in-process worker drives the caller's registry itself,
            # trace events included.
            obs_registry=obs if plan.n_shards == 1 else None,
        ))

    if restored is not None:
        for config, blob in zip(configs, restored["workers"]):
            config.restore_blob = blob
        state = restored["engine"]
        run.digests = state["digests"]
        run.rounds = state["rounds"]
        run.t = state["t"]
        run.spanning = state["spanning"]
        run.shares = state["shares"]
        if run.driver is not None:
            run.driver.restore(state["control"])
    run.ckpt_next = _next_checkpoint(run.t, run.checkpoint_every)
    return configs


def _control(run: _Run) -> None:
    """Control phase, run at each control instant: sample every shard,
    decide, and apply the moves.

    Workers are quiescent at the barrier, so the sampled ACK counters
    are exact when the moves land in the same exchange.
    """
    samples = dict(enumerate(_broadcast(run.channels, ("control-sample",))))
    moves = run.driver.tick(run.t, samples)
    for shard in sorted(moves):
        run.channels[shard].post(("control-apply", moves[shard]))
    for shard in sorted(moves):
        # Relaunches schedule new events at t; refresh the idle-jump
        # view so the next barrier sees them.
        run.digests[shard]["next"] = run.channels[shard].collect()[1]["next"]


def _couple(run: _Run) -> List[Dict[str, Any]]:
    """Couple phase: fold the digests into per-shard updates.

    A connection whose every slice drained completes (its record is
    composed here and its slices finalized); every other one gets a
    pool rebalance and, per shard, the LIA view of its remote subflows.
    Touches engine state only, never a channel.
    """
    updates: List[Dict[str, Any]] = [
        {"views": {}, "grants": {}, "finalize": []}
        for __ in range(run.plan.n_shards)
    ]
    for gid in run.spanning_gids:
        state = run.spanning[gid]
        if state.complete:
            continue
        parts = [
            run.digests[shard]["flows"][gid] for shard in state.shards
        ]
        pool = sum(part["remaining"] for part in parts)
        if pool == 0 and all(part["drained"] for part in parts):
            state.complete = True
            state.record = _compose_record(gid, state.spec, parts)
            for shard in state.shards:
                updates[shard]["finalize"].append(gid)
            continue
        moves = _rebalance(parts, state.shards, state.prev_acked)
        state.prev_acked = [part["acked"] for part in parts]
        for shard, delta in moves:
            updates[shard]["grants"][gid] = delta
        for shard in state.shards:
            remote = [
                pair
                for other, part in zip(state.shards, parts)
                if other != shard
                for pair in part["subflows"]
            ]
            updates[shard]["views"][gid] = lia_terms(remote)
    return updates


def _target(run: _Run, updates: List[Dict[str, Any]]) -> _Step:
    """Target phase: where the next barrier is, and who runs to it.

    Promotes uncoupled shards to free-running, then advances one epoch
    -- or jumps to the next event when every steering worker is idle
    past it -- clamped to the horizon and the next control instant.
    """
    if run.rounds > MAX_ROUNDS:
        raise RuntimeError(
            f"shard engine exceeded {MAX_ROUNDS} barrier rounds "
            f"(simulated t={run.t}); is a spanning flow stuck on a "
            "dead path?"
        )
    incomplete = [s for s in run.spanning.values() if not s.complete]
    coupled = {shard for state in incomplete for shard in state.shards}
    all_shards = set(range(run.plan.n_shards))
    free: List[int] = []
    if run.checkpoint_every is not None or run.driver is not None:
        # Consistent cuts need *every* worker quiescent at the barrier,
        # so nobody free-runs while checkpoints may be written; control
        # likewise samples and steers every shard, so nobody may run
        # ahead of the control clock.
        need = all_shards
    else:
        # A worker holding no incomplete spanning slice and no pending
        # update exchanges nothing with anyone: promote it to
        # free-running (one unbounded run, collected at shutdown).
        # Exact, not an approximation -- its planes share no state with
        # the barriered ones.
        need = coupled | {
            shard for shard in all_shards if any(updates[shard].values())
        }
        free = sorted(all_shards - need - run.freed)
        run.freed.update(free)
        if not need:
            return _Step(free)

    # Idle jumps and stall detection steer by the workers that can
    # still influence coupling; in checkpoint mode the uncoupled
    # workers keep barriering (for the cut) but must not steer t, or
    # the coupled barrier sequence -- and with it the results -- would
    # differ from an uncheckpointed run.
    steer = coupled or all_shards - run.freed
    nexts = [
        run.digests[shard]["next"]
        for shard in steer
        if run.digests[shard]["next"] is not None
    ]
    granting = any(u["grants"] for u in updates)
    if not nexts and not granting and not any(
        u["finalize"] for u in updates
    ):
        if incomplete:
            raise RuntimeError(
                f"shard engine stalled at t={run.t}: {len(incomplete)} "
                "spanning connection(s) incomplete but no worker has "
                "pending events"
            )
        return _Step(free)
    if run.t >= run.until:
        return _Step(free)
    t_next = run.t + run.epoch
    jumped = False
    if not granting and nexts and min(nexts) > t_next:
        # Every steering worker is idle past the next barrier and no
        # revival is in flight: digests cannot change while idle, so
        # jumping straight to the next real event is exact, not an
        # approximation.
        t_next = min(nexts)
        jumped = True
    t_next = min(t_next, run.until)
    if run.driver is not None:
        # Epochs (and idle jumps) never skip a control instant.
        t_next = run.driver.clamp(t_next)
    return _Step(free, t_next, sorted(need), jumped)


def _exchange(run: _Run, step: _Step, updates) -> None:
    """Exchange phase: post every request, then collect every reply.

    Dispatching one barrier to *all* workers before waiting on any is
    what runs the shards' epochs in parallel on the ``shm`` backend's
    worker processes.
    """
    for shard in step.free:
        run.channels[shard].post(("run", run.until, {}))
    if step.t_next is None:
        return
    for shard in step.need:
        run.channels[shard].post(("run", step.t_next, updates[shard]))
    for shard in step.need:
        run.digests[shard] = run.channels[shard].collect()[1]
    run.barriers.append((step.t_next, step.jumped))
    run.t = step.t_next
    run.rounds += 1


def _checkpoint(run: _Run) -> None:
    """Checkpoint phase, run at the first barrier at or past each
    multiple of ``checkpoint_every``: write every worker and the loop
    state."""
    _write_shard_checkpoint(
        run.checkpoint_dir,
        _broadcast(run.channels, ("snapshot",)),
        {
            "t": run.t,
            "rounds": run.rounds,
            "digests": run.digests,
            "spanning": run.spanning,
            "shares": run.shares,
            "control": (
                run.driver.state() if run.driver is not None else None
            ),
        },
        run.epoch, run.backend,
    )
    run.ckpt_next = _next_checkpoint(run.t, run.checkpoint_every)


def _merge(run: _Run, obs) -> ShardResult:
    """Merge phase: stop the workers, then merge their records and
    telemetry in shard order, and the composed spanning records."""
    for shard in sorted(run.freed):
        # The free-run grant's digest reply is still in flight; drain
        # it so the stop request pairs with the right reply.
        run.channels[shard].collect()
    records: List[Any] = []
    plane_totals: Dict[int, Dict[str, int]] = {}
    events_processed = 0
    for result in _broadcast(run.channels, ("stop",)):
        records.extend(result["records"])
        plane_totals.update(result["plane_totals"])
        events_processed += result["events_processed"]
        if obs.enabled and result["obs"] is not None:
            obs.absorb(result["obs"])
    for gid in run.spanning_gids:
        record = run.spanning[gid].record
        if record is not None:
            records.append(record)
            if obs.enabled:
                # Local flows count inside their worker, spanning ones
                # here, so merged telemetry covers every flow once.
                publish_flow(obs, record)
    if obs.enabled and run.driver is not None:
        run.driver.publish(obs)
    records.sort(key=lambda r: r.flow_id)
    return ShardResult(
        records=records,
        n_shards=run.plan.n_shards,
        epoch=run.epoch,
        backend=run.backend,
        rounds=run.rounds,
        events_processed=events_processed,
        plane_totals=plane_totals,
        barriers=run.barriers,
        control=None if run.driver is None else {
            "fingerprint": run.driver.controller.fingerprint(),
            "stats": run.driver.controller.stats.as_dict(),
        },
    )


def _rebalance(
    parts: List[Dict[str, Any]],
    shards: Tuple[int, ...],
    prev_acked: List[int],
) -> List[Tuple[int, int]]:
    """Pool deltas for one spanning connection at one barrier.

    The serial scheduler keeps one shared pool that every subflow pulls
    from as its window opens, so byte placement tracks each path's
    *achieved* throughput and all subflows drain within about an RTT of
    each other.  Each barrier re-places the still-unpulled pool bytes
    the same way: every shard keeps a *floor* of its immediate window
    demand plus one full cwnd of float -- the demand term is exactly
    the serial pull (and dominates as ``epoch -> 0``), while the cwnd
    float keeps fast recovery fed with new data mid-epoch (recovery
    with nothing new to send cannot clock ACKs and stalls into a full
    RTO) -- and the surplus above all floors is placed proportional to
    the bytes each shard actually ACKed since the last barrier, which
    equalizes the shards' remaining completion time the way a shared
    pool does.  Congested or faulted paths ACK little and automatically
    shed their backlog to healthy shards.

    All splits are exact integer largest-remainder, so the pool is
    conserved byte-for-byte and placement is deterministic.  Only
    unpulled pool bytes ever move; in-flight data stays put.
    """
    remaining = [part["remaining"] for part in parts]
    pool = sum(remaining)
    if pool == 0:
        return []
    rates = [
        max(0, part["acked"] - prev)
        for part, prev in zip(parts, prev_acked)
    ]
    if sum(rates) == 0:
        # No throughput signal yet (first barrier, or nothing ACKed
        # this epoch): keep the current split.
        return []
    floors = [
        part["demand"]
        + int(math.ceil(sum(c for c, __ in part["subflows"])))
        for part in parts
    ]
    # Every shard keeps its open-window demand plus the window of any
    # subflow in fast recovery untouched: clawing a recovering subflow's
    # new-data float leaves it nothing to clock ACKs with and stalls it
    # into a full RTO.
    protected = [
        min(have, part["demand"] + part["recovery_cwnd"])
        for have, part in zip(remaining, parts)
    ]
    if sum(floors) >= pool:
        # Scarce pool: re-place everything proportional to the floors
        # (the live window state -- a shard whose windows collapsed
        # sheds its backlog to the still-growing shards; this is the
        # serial pull at barrier granularity).
        targets = largest_remainder(pool, floors)
    else:
        # Surplus: floors first, the rest by measured ACK throughput.
        surplus = largest_remainder(pool - sum(floors), rates)
        targets = [f + s for f, s in zip(floors, surplus)]
    # Respect the protections: raise any shard below its protected
    # holding back up to it, taking the difference from shards with
    # slack above their own protection.
    raises = [max(0, p - t) for p, t in zip(protected, targets)]
    if sum(raises):
        slack = [max(0, t - p) for p, t in zip(protected, targets)]
        move = min(sum(raises), sum(slack))
        gives = largest_remainder(move, raises)
        takes = largest_remainder(move, slack)
        targets = [
            t + g - c for t, g, c in zip(targets, gives, takes)
        ]
    return [
        (shard, target - have)
        for shard, target, have in zip(shards, targets, remaining)
        if target != have
    ]


def _compose_record(
    gid: int, spec: FlowSpec, parts: List[Dict[str, Any]]
) -> SimFlowRecord:
    """Stitch one spanning connection's record from its shard digests."""
    return SimFlowRecord(
        flow_id=gid,
        src=spec.src,
        dst=spec.dst,
        size=int(spec.size),
        start=0.0 if spec.at is None else spec.at,
        finish=max(part["drain_time"] for part in parts),
        n_subflows=len(spec.paths),
        retransmits=sum(part["retransmits"] for part in parts),
        packets_sent=sum(part["packets_sent"] for part in parts),
        tag=spec.tag,
        planes=spec.planes,
    )
