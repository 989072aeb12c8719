"""The epoch-lockstep shard engine.

One engine process drives one worker per plane shard.  Packet-level
runs advance in *epochs* of simulated time: every worker runs its
event loop to the same barrier ``t``, exports a per-spanning-connection
coupling digest (subflow cwnd/RTT, local pool, ACK progress), and the
engine folds the digests into next-epoch updates -- epoch-stale LIA
coupling views, a deterministic largest-remainder rebalance of each
connection's shared send-buffer pool, and completion/finalize notices.
The epoch length is the staleness bound: ``epoch -> 0`` converges to
the serial coupled behaviour, and ``epoch == 0`` (or one shard) takes
the literal serial code path, byte-identical to the pre-shard
simulator.

Determinism: worker digests are merged in shard-index order, pool
splits use integer largest-remainder arithmetic, records are sorted by
global flow id, and per-shard telemetry registries are absorbed into
the caller's registry in shard order -- so results are independent of
scheduling noise and identical across the ``local`` and ``shm``
channel backends.
"""

from __future__ import annotations

import functools
import math
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.ckpt.snapshot import dumps
from repro.ckpt.store import (
    CheckpointError,
    latest,
    next_step,
    prune,
    read_payload,
    step_dir,
    write_checkpoint,
)
from repro.config import current
from repro.core.flowspec import FlowSpec
from repro.core.pnet import PNet
from repro.obs import get_registry
from repro.shard.channel import LocalChannel
from repro.shard.coupling import (
    largest_remainder,
    lia_terms,
    split_bytes,
)
from repro.shard.lookahead import (
    derive_lookahead,
    epochs_per_sync,
)
from repro.shard.partition import ShardPlan, _count_fallback, classify
from repro.shard.shm import ShmChannel
from repro.shard.worker import WorkerConfig, build_worker, handle_message
from repro.sim.network import SimFlowRecord
from repro.topology.graph import Topology

#: Hard cap on barrier rounds -- a stuck spanning connection (e.g. all
#: its paths black-holed with no fault restore coming) raises instead
#: of spinning forever.
MAX_ROUNDS = 1_000_000


class ShardSafetyError(RuntimeError):
    """The requested run cannot be sharded without changing results."""


#: ``meta["kind"]`` of checkpoints the shard engine writes: one payload
#: per worker (the worker encodes itself at an epoch barrier) plus
#: ``engine.pkl`` holding the barrier-loop state.
KIND_SHARD = "shard"


def _write_shard_checkpoint(
    root, blobs, state, epoch, backend, keep_last=None
) -> pathlib.Path:
    """Write one ``kind="shard"`` checkpoint: worker blobs + engine state.

    ``blobs`` are the encoded workers in shard order, taken at a
    barrier where every worker is quiescent (its event loop stopped at
    ``state["t"]``), so together with the engine's own loop ``state``
    they form a globally consistent cut.  Both the multi-shard loop and
    the one-shard serial path write through here, so
    :func:`_load_shard_checkpoint` reads either.  The container write
    is manifest-last, so a crash mid-write is indistinguishable from no
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
    directory = write_checkpoint(step_dir(root, next_step(root)), payloads, meta)
    if keep_last is not None:
        prune(root, keep_last)
    return directory


def _load_shard_checkpoint(root, n_shards: int) -> Optional[Dict[str, Any]]:
    """The newest valid shard checkpoint under ``root`` (None if empty).

    Shard count must match the resuming run: worker pickles are
    per-shard slices of the workload and cannot be re-partitioned.
    """
    chosen = latest(root)
    if chosen is None:
        return None
    from repro.ckpt.store import read_manifest

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
    return {
        "path": chosen,
        "workers": [
            read_payload(chosen, f"shard-{shard:02d}.pkl")
            for shard in range(n_shards)
        ],
        "engine": pickle.loads(read_payload(chosen, "engine.pkl")),
    }


@dataclass
class ShardResult:
    """Merged outcome of a sharded (or serial-fallback) run.

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
    #: Effective lookahead (simulated seconds) and the barrier stride it
    #: quantised to: one digest exchange covers ``stride`` epochs.
    lookahead: float = 0.0
    stride: int = 1
    #: Barrier trace ``[(t, jumped), ...]`` when ``trace_barriers`` was
    #: requested (None otherwise): ``jumped`` marks idle jumps past the
    #: regular stride, which are exact (all coupled workers idle).
    barriers: Optional[List[Tuple[float, bool]]] = None
    #: Adaptive-control summary (``{"fingerprint": ..., "stats": ...}``)
    #: when the run had ``control=``; None otherwise.
    control: Optional[Dict[str, Any]] = None

    @property
    def total_drops(self) -> int:
        return sum(t.get("drops", 0) for t in self.plane_totals.values())

    @property
    def total_retransmits(self) -> int:
        return sum(getattr(r, "retransmits", 0) for r in self.records)

    @property
    def fcts(self) -> List[float]:
        return [r.fct for r in self.records]


def _as_planes(planes: Union[PNet, Sequence[Topology]]) -> List[Topology]:
    if isinstance(planes, PNet):
        return list(planes.planes)
    return list(planes)


def _check_schedule(events, n_planes: int) -> Tuple:
    events = tuple(events) if events is not None else ()
    for event in events:
        if event.plane >= n_planes:
            raise ValueError(
                f"fault event at t={event.at} names plane {event.plane} "
                f"but the network has {n_planes}"
            )
    return events


def _strip_callbacks(specs: Sequence[FlowSpec]) -> List[FlowSpec]:
    return [
        spec.replace(on_complete=None) if spec.on_complete is not None
        else spec
        for spec in specs
    ]


def _make_channels(configs: List[WorkerConfig], backend: str):
    if backend == "local":
        return [
            LocalChannel(build_worker(config), handle_message)
            for config in configs
        ]
    channels = []
    try:
        for config in configs:
            channels.append(ShmChannel(config))
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


def _describe_spanning(gid: int, spec: FlowSpec, plan: ShardPlan) -> str:
    """Name a spanning flow and exactly where it spans, for refusals."""
    planes_used = sorted({p for p, __ in spec.paths})
    shard_ids = plan.shards_of(spec)
    return (
        f"flow {gid} ({spec.src}->{spec.dst}) places subflows on "
        f"plane(s) {', '.join(map(str, planes_used))}, spanning "
        f"shard(s) {', '.join(map(str, shard_ids))}"
    )


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


def run_packet_trial(
    planes: Union[PNet, Sequence[Topology]],
    specs: Sequence[FlowSpec],
    *,
    shards: Optional[int] = None,
    epoch: Optional[float] = None,
    lookahead: Optional[float] = None,
    backend: Optional[str] = None,
    schedule=None,
    until: float = math.inf,
    obs=None,
    checkpoint_dir=None,
    checkpoint_every: Optional[float] = None,
    resume: bool = False,
    checkpoint_keep_last: Optional[int] = None,
    trace_barriers: bool = False,
    control: Optional[Any] = None,
    serial_fallback: bool = False,
    **sim_kwargs: Any,
) -> ShardResult:
    """Run a packet-level trial, sharded by plane.

    Args:
        planes: the dataplanes (or a :class:`PNet`).
        specs: flows in submission order; their position is the global
            flow id on the returned records.
        shards: worker count; defaults to ``PNET_SHARDS`` (clamped to
            the plane count).  ``1`` -- or ``epoch=0`` -- runs the
            serial code path, byte-identical to a plain
            :class:`~repro.sim.network.PacketNetwork` run.
        epoch: barrier spacing in simulated seconds; defaults to
            ``PNET_EPOCH``.  Only spanning MPTCP connections feel it.
        lookahead: conservative-PDES lookahead in simulated seconds;
            defaults to ``PNET_LOOKAHEAD``; ``"auto"`` derives it as the
            minimum spanning-path RTT.  Barrier rounds are batched to
            ``max(1, floor(lookahead / epoch))`` epochs per digest
            exchange; ``0`` forces one exchange per epoch.
        backend: ``"local"`` or ``"shm"`` channel backend; defaults
            to ``PNET_SHARD_BACKEND``.  All four defaults come from the
            current :class:`~repro.config.RunConfig`.
        schedule: optional iterable of fault events, routed to the
            owning shards (dataplane semantics only -- injector-style
            resteering is cross-plane and must stay serial).
        until: simulated-time horizon (default: run to completion).
        obs: telemetry registry absorbing the per-shard registries in
            shard order; defaults to the process-wide registry.
        checkpoint_dir: root for ``repro.ckpt`` snapshots.  With
            ``checkpoint_every``, a checkpoint is written at the first
            epoch barrier at or past each multiple of that many
            simulated seconds (workers are quiescent at barriers, so
            the cut is globally consistent).
        checkpoint_every: checkpoint spacing in simulated seconds.
        resume: load the newest valid checkpoint under
            ``checkpoint_dir`` and continue from its barrier; a fresh
            start when none exists.  The shard count must match the
            checkpointed run.
        checkpoint_keep_last: prune to the newest N checkpoints after
            each write (default: keep all).
        trace_barriers: record every barrier as ``(t, jumped)`` on the
            result (test/diagnostic aid; off by default to keep long
            runs lean).
        control: a :class:`repro.control.Controller`, policy object, or
            policy name enabling the adaptive control plane.  Serial
            runs attach the controller's own loop; multi-shard runs
            drive the same policy/monitor objects at lookahead barriers
            (sample + apply travel as extra digest-style messages), so
            adaptive workloads no longer force ``serial_fallback``.
        serial_fallback: instead of raising :class:`ShardSafetyError`
            for workloads that cannot shard safely (completion
            callbacks, non-integer spanning sizes), fall back to the
            serial path and record it on the ``shard.serial_fallback``
            counter.
        sim_kwargs: forwarded to ``PacketNetwork`` (queue_packets, mss,
            min_rto, ecn_threshold).

    Raises:
        ShardSafetyError: multi-shard run with completion callbacks
            (closed-loop workloads cannot shard) or non-integer
            spanning flow sizes -- unless ``serial_fallback=True``.
    """
    cfg = current(
        shards=shards, epoch=epoch, lookahead=lookahead,
        shard_backend=backend,
    )
    planes = _as_planes(planes)
    specs = list(specs)
    epoch = cfg.epoch
    n_shards = min(cfg.shards, len(planes)) if cfg.sharded else 1
    obs = obs if obs is not None else get_registry()
    events = _check_schedule(schedule, len(planes))
    plan = ShardPlan.build(len(planes), n_shards)
    backend = cfg.shard_backend if plan.n_shards > 1 else "local"
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be > 0, got {checkpoint_every}"
            )
    if resume and checkpoint_dir is None:
        raise ValueError("resume requires checkpoint_dir")

    run_serial = functools.partial(
        _run_serial_packet, planes, specs, events, until, obs, epoch,
        sim_kwargs,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        resume=resume,
        checkpoint_keep_last=checkpoint_keep_last,
        control=control,
    )
    if plan.n_shards == 1:
        return run_serial()

    with_callbacks = [
        gid for gid, spec in enumerate(specs)
        if spec.on_complete is not None
    ]
    if with_callbacks:
        if serial_fallback:
            _count_fallback("packet.on_complete", obs)
            return run_serial()
        raise ShardSafetyError(
            f"flow {with_callbacks[0]} "
            f"({specs[with_callbacks[0]].src}->"
            f"{specs[with_callbacks[0]].dst}) carries a completion "
            "callback, which cannot run under PNET_SHARDS > 1: the "
            "engine only sees flow completion at epoch barriers, so "
            "closed-loop workloads must run serial -- pass "
            "serial_fallback=True (or shards=1) to run this workload "
            "on the serial path"
        )

    local, spanning_gids = classify(specs, plan)
    spanning: Dict[int, _SpanningState] = {}
    shares: Dict[int, Dict[int, int]] = {}
    for gid in spanning_gids:
        spec = specs[gid]
        size = int(spec.size)
        if size != spec.size:
            if serial_fallback:
                _count_fallback("packet.fractional_spanning", obs)
                return run_serial()
            raise ShardSafetyError(
                f"spanning {_describe_spanning(gid, spec, plan)}, but "
                f"has non-integer size {spec.size!r}: the shared pool "
                "splits whole bytes across shards -- round the size, "
                "pass serial_fallback=True, or run with shards=1"
            )
        shard_ids = plan.shards_of(spec)
        counts = [
            len(plan.local_paths(spec, shard)) for shard in shard_ids
        ]
        split = split_bytes(size, counts)
        spanning[gid] = _SpanningState(gid, spec, shard_ids)
        shares[gid] = dict(zip(shard_ids, split))

    driver = None
    if control is not None:
        from repro.control import as_controller
        from repro.control.sharded import ShardControlDriver

        driver = ShardControlDriver(
            as_controller(control),
            planes,
            plane_shard={
                plane: shard
                for shard in range(plan.n_shards)
                for plane in plan.planes_of_shard[shard]
            },
            flow_shard={
                gid: shard
                for shard in range(plan.n_shards)
                for gid in local[shard]
            },
            spanning_gids=set(spanning_gids),
        )

    collect_obs = obs.enabled
    stripped = _strip_callbacks(specs)
    configs = []
    for shard in range(plan.n_shards):
        owned = set(local[shard])
        entries = [
            (gid, stripped[gid])
            for gid in range(len(specs))
            if gid in owned
            or (gid in spanning and shard in spanning[gid].shards)
        ]
        configs.append(WorkerConfig(
            shard=shard,
            plan=plan,
            planes=planes,
            sim_kwargs=dict(sim_kwargs),
            entries=entries,
            spanning_share={
                gid: shares[gid][shard]
                for gid in spanning
                if shard in spanning[gid].shards
            },
            fault_events=tuple(
                e for e in events
                if e.plane in plan.planes_of_shard[shard]
            ),
            collect_obs=collect_obs,
        ))

    restored = (
        _load_shard_checkpoint(checkpoint_dir, plan.n_shards)
        if resume else None
    )
    if restored is not None:
        for config, blob in zip(configs, restored["workers"]):
            config.restore_blob = blob

    # Conservative lookahead: coupling digests cannot change faster
    # than one spanning-path RTT, so one digest exchange may safely
    # cover several epochs (the epoch stays the staleness quantum; the
    # stride only batches the exchanges).
    la = cfg.lookahead
    if la is None:
        la = derive_lookahead(planes, specs, spanning_gids)
    stride = epochs_per_sync(la, epoch)
    sync_dt = epoch * stride

    checkpointing = checkpoint_every is not None
    barriers: Optional[List[Tuple[float, bool]]] = (
        [] if trace_barriers else None
    )
    all_shards = set(range(plan.n_shards))
    freed: set = set()

    channels = _make_channels(configs, backend)
    try:
        if restored is None:
            for ch in channels:
                ch.post(("digest",))
            digests = [ch.collect()[1] for ch in channels]
            rounds = 0
            t = 0.0
        else:
            engine_state = restored["engine"]
            digests = engine_state["digests"]
            rounds = engine_state["rounds"]
            t = engine_state["t"]
            spanning = engine_state["spanning"]
            shares = engine_state["shares"]
            if driver is not None and engine_state.get("control") is not None:
                driver.restore(engine_state["control"])
        ckpt_next = (
            (math.floor(t / checkpoint_every) + 1) * checkpoint_every
            if checkpoint_every is not None else math.inf
        )
        while True:
            if rounds > MAX_ROUNDS:
                raise RuntimeError(
                    f"shard engine exceeded {MAX_ROUNDS} barrier rounds "
                    f"(simulated t={t}); is a spanning flow stuck on a "
                    "dead path?"
                )
            if driver is not None and driver.due(t):
                # One control cycle at this barrier: workers are
                # quiescent, so the sampled ACK counters are exact when
                # the apply batches land in the same exchange.
                for ch in channels:
                    ch.post(("control-sample",))
                samples = {
                    shard: ch.collect()[1]
                    for shard, ch in enumerate(channels)
                }
                batches = driver.tick(t, samples)
                for shard in sorted(batches):
                    batch = batches[shard]
                    channels[shard].post((
                        "control-apply",
                        batch["aborts"],
                        batch["launches"],
                    ))
                for shard in sorted(batches):
                    reply = channels[shard].collect()[1]
                    # Relaunches schedule new events at t; refresh the
                    # idle-jump view so the next stride sees them.
                    digests[shard]["next"] = reply["next"]
            updates: List[Dict[str, Any]] = [
                {"views": {}, "grants": {}, "finalize": []}
                for __ in range(plan.n_shards)
            ]
            any_grants = False
            incomplete = 0
            coupled: set = set()
            for gid in spanning_gids:
                state = spanning[gid]
                if state.complete:
                    continue
                parts = [
                    digests[shard]["flows"][gid] for shard in state.shards
                ]
                pool = sum(part["remaining"] for part in parts)
                if pool == 0 and all(part["drained"] for part in parts):
                    state.complete = True
                    state.record = _compose_record(gid, state.spec, parts)
                    for shard in state.shards:
                        updates[shard]["finalize"].append(gid)
                    continue
                incomplete += 1
                coupled.update(state.shards)
                moves = _rebalance(parts, state.shards, state.prev_acked)
                state.prev_acked = [part["acked"] for part in parts]
                for shard, delta in moves:
                    updates[shard]["grants"][gid] = delta
                    any_grants = True
                for shard in state.shards:
                    remote = [
                        pair
                        for other, part in zip(state.shards, parts)
                        if other != shard
                        for pair in part["subflows"]
                    ]
                    updates[shard]["views"][gid] = lia_terms(remote)

            finalizing = any(u["finalize"] for u in updates)
            if checkpointing or driver is not None:
                # Consistent cuts need *every* worker quiescent at the
                # barrier, so nobody free-runs while checkpoints may be
                # written; control likewise samples and steers every
                # shard, so nobody may run ahead of the control clock.
                need = set(all_shards)
            else:
                # A worker holding no incomplete spanning slice and no
                # pending update exchanges nothing with anyone: promote
                # it to free-running (one unbounded run, collected at
                # shutdown).  Exact, not an approximation -- its planes
                # share no state with the barriered ones.
                need = coupled | {
                    shard
                    for shard in all_shards
                    if updates[shard]["views"]
                    or updates[shard]["grants"]
                    or updates[shard]["finalize"]
                }
                for shard in sorted(all_shards - need - freed):
                    channels[shard].post((
                        "run",
                        None if math.isinf(until) else until,
                        {},
                    ))
                    freed.add(shard)
                if not need:
                    break

            # Idle jumps and stall detection steer by the workers that
            # can still influence coupling; in checkpoint mode the
            # uncoupled workers keep barriering (for the cut) but must
            # not steer t, or the coupled barrier sequence -- and with
            # it the results -- would differ from an uncheckpointed run.
            steer = sorted(coupled) if coupled else sorted(
                all_shards - freed
            )
            nexts = [
                digests[shard]["next"]
                for shard in steer
                if digests[shard]["next"] is not None
            ]
            if not nexts and not any_grants and not finalizing:
                if incomplete:
                    raise RuntimeError(
                        f"shard engine stalled at t={t}: {incomplete} "
                        "spanning connection(s) incomplete but no worker "
                        "has pending events"
                    )
                break
            if t >= until:
                break
            t_next = t + sync_dt
            jumped = False
            if not any_grants and nexts and min(nexts) > t_next:
                # Every steering worker is idle past the next barrier
                # and no revival is in flight: digests cannot change
                # while idle, so jumping straight to the next real
                # event is exact, not an approximation.
                t_next = min(nexts)
                jumped = True
            t_next = min(t_next, until)
            if driver is not None:
                # Strides (and idle jumps) never skip a control instant.
                t_next = driver.clamp(t_next)
            for shard in sorted(need):
                channels[shard].post(("run", t_next, updates[shard]))
            for shard in sorted(need):
                digests[shard] = channels[shard].collect()[1]
            if barriers is not None:
                barriers.append((t_next, jumped))
            t = t_next
            rounds += 1
            if t >= ckpt_next:
                for ch in channels:
                    ch.post(("snapshot",))
                _write_shard_checkpoint(
                    checkpoint_dir,
                    [ch.collect()[1] for ch in channels],
                    {
                        "t": t,
                        "rounds": rounds,
                        "digests": digests,
                        "spanning": spanning,
                        "shares": shares,
                        "control": (
                            driver.state() if driver is not None else None
                        ),
                    },
                    epoch, backend, keep_last=checkpoint_keep_last,
                )
                ckpt_next = (
                    math.floor(t / checkpoint_every) + 1
                ) * checkpoint_every

        for shard in sorted(freed):
            # The free-run grant's digest reply is still in flight;
            # drain it so the stop request pairs with the right reply.
            channels[shard].collect()
        for ch in channels:
            ch.post(("stop",))
        results = [ch.collect()[1] for ch in channels]
    finally:
        _close_all(channels)

    records: List[Any] = []
    plane_totals: Dict[int, Dict[str, int]] = {}
    events_processed = 0
    for result in results:
        records.extend(result["records"])
        plane_totals.update(result["plane_totals"])
        events_processed += result["events_processed"]
        if collect_obs and result["obs"] is not None:
            obs.absorb(result["obs"])
    for gid in spanning_gids:
        state = spanning[gid]
        if state.record is not None:
            records.append(state.record)
            if collect_obs:
                _publish_flow_obs(obs, state.record)
    records.sort(key=lambda r: r.flow_id)
    return ShardResult(
        records=records,
        n_shards=plan.n_shards,
        epoch=epoch,
        backend=backend,
        rounds=rounds,
        events_processed=events_processed,
        plane_totals=plane_totals,
        lookahead=la,
        stride=stride,
        barriers=barriers,
        control=(
            {
                "fingerprint": driver.fingerprint(),
                "stats": driver.stats.as_dict(),
            }
            if driver is not None else None
        ),
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
    # into a full RTO.  Bytes above protection are free to re-place:
    # proportional to the floors when the pool is scarce (the live
    # window state -- a shard whose windows collapsed sheds its backlog
    # to the still-growing shards, which is the serial pull at barrier
    # granularity), and proportional to measured ACK throughput when
    # the pool still exceeds all floors (equalizing remaining
    # completion time the way one shared pool does).
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
        # Surplus: floors first, then the rest proportional to
        # measured ACK throughput, equalizing the shards' remaining
        # completion time the way one shared pool does.
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


def _publish_flow_obs(obs, record: SimFlowRecord) -> None:
    """Per-plane flow counters for an engine-composed spanning record.

    Mirrors ``PacketNetwork``'s completion-time attribution (even byte
    split across planes) so merged telemetry covers every flow exactly
    once: local flows count inside their worker, spanning flows here.
    """
    share = record.size / len(record.planes)
    for plane in record.planes:
        obs.counter("net.flow.bytes", plane=plane).inc(share)
        obs.counter("net.flows", plane=plane).inc()
        obs.histogram("net.fct_seconds", plane=plane).observe(record.fct)


def _serial_control_rekey(worker, old_fid: int, new_fid: int) -> None:
    """Extend a serial worker's gid table across a control resteer.

    Fresh flow ids are assigned densely, so the relaunch's id is always
    the next index; it inherits the original flow's global id, matching
    the multi-shard engine's stable-gid records.
    """
    worker._local_gids.append(worker._local_gids[old_fid])


def _run_serial_packet(
    planes, specs, events, until, obs, epoch, sim_kwargs,
    checkpoint_dir=None, checkpoint_every=None, resume=False,
    checkpoint_keep_last=None, control=None,
) -> ShardResult:
    """One-shard path: the literal serial simulator, no barriers.

    Flows keep their completion callbacks and the caller's registry is
    used directly, so a ``PNET_SHARDS=1`` run is byte-identical to a
    plain ``PacketNetwork`` run of the same workload.  Checkpoints go
    through the multi-shard path's writer (one worker payload), so
    resume works across either entry.
    """
    plan = ShardPlan.build(len(planes), 1)
    restored = (
        _load_shard_checkpoint(checkpoint_dir, 1) if resume else None
    )
    config = WorkerConfig(
        shard=0,
        plan=plan,
        planes=list(planes),
        sim_kwargs=dict(sim_kwargs),
        entries=list(enumerate(specs)),
        fault_events=events,
        collect_obs=False,
        obs_registry=obs if restored is None else None,
        restore_blob=restored["workers"][0] if restored else None,
    )
    worker = build_worker(config)
    if control is not None and restored is None:
        from repro.control import as_controller

        controller = as_controller(control)
        controller.attach(worker.net)
        # Serial resteers assign fresh flow ids; keep the worker's
        # gid table covering them so result() re-keys records.  A
        # partial over a module function, so the hook rides the
        # worker's checkpoint pickle.
        controller.on_rekey = functools.partial(_serial_control_rekey, worker)
        # The attached loop rides the worker's pickle graph, so shard
        # checkpoints resume it without extra plumbing.
        worker.net._controller = controller
    t = restored["engine"]["t"] if restored else 0.0
    if checkpoint_every is None:
        worker.advance(until)
    else:
        while True:
            t_next = (
                math.floor(t / checkpoint_every) + 1
            ) * checkpoint_every
            if t_next >= until:
                worker.advance(until)
                break
            worker.advance(t_next)
            t = t_next
            if worker.net.loop.next_time() is None:
                break
            _write_shard_checkpoint(
                checkpoint_dir,
                [dumps(worker)],
                {
                    "t": t,
                    "rounds": 0,
                    "digests": [],
                    "spanning": {},
                    "shares": {},
                },
                epoch, "local", keep_last=checkpoint_keep_last,
            )
    result = worker.result()
    if restored is not None and obs.enabled and worker.obs is not obs:
        # The restored worker continued on its checkpointed registry
        # (which holds the pre-checkpoint counters); fold the whole
        # run's telemetry into the caller's registry.
        obs.absorb(worker.obs.export_state())
    records = sorted(result["records"], key=lambda r: r.flow_id)
    attached = getattr(worker.net, "_controller", None)
    return ShardResult(
        records=records,
        n_shards=1,
        epoch=epoch,
        backend="local",
        rounds=0,
        events_processed=result["events_processed"],
        plane_totals=result["plane_totals"],
        control=(
            {
                "fingerprint": attached.fingerprint(),
                "stats": attached.stats.as_dict(),
            }
            if attached is not None else None
        ),
    )
