"""Snapshot/restore of live simulator object graphs.

A checkpoint captures the *complete* state of a run in one pickle
stream: the event heap and clock, TCP/MPTCP connection and LIA-coupling
state, switch/NIC queue contents, fluid rate state, the
:class:`~repro.faults.FaultInjector`'s remaining schedule and link
refcounts, the :mod:`repro.obs` registry (minus its file sinks), and
the run's :class:`~repro.ckpt.rng.RngBundle`.  Everything is pickled
**together** so aliasing is preserved -- the injector's planes are the
simulator's planes before and after restore, and pending heap events
keep pointing at the same source objects.

:func:`dumps` / :func:`loads` are the encoding.  A plain pickle walks
from a queue to a waiting packet's arrival event, to the packet's
route, to the next queue, depth first, so a busy fabric exhausts the
recursion limit.  So every :class:`~repro.sim.link.Queue` is pickled
as an empty shell, and a flat table of the queues' ``__slots__``
values follows in the same stream, with the same memo; the loader
fills the shells from it.  Each queue settles before its row is
written, so the table holds only packets still queued, not the ones
already sent.

The hard guarantee (pinned by ``tests/test_ckpt_resume.py``):
``run(T1) -> save -> restore -> run(T2)`` produces records and
deterministic telemetry byte-identical to an uninterrupted ``run(T2)``.
For the packet engine any ``T1`` works (event times are absolute).  For
the fluid and hybrid engines the chunk boundary must be an *event
boundary* -- their ``run``'s ``stop_after`` pauses there without the
horizon crediting that would perturb later completion times by ulps;
:func:`run_checkpointed` handles the distinction.
"""

from __future__ import annotations

import copyreg
import io
import math
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.ckpt.rng import RngBundle
from repro.ckpt.store import (
    CheckpointError,
    PathLike,
    next_step,
    read_manifest,
    read_payload,
    resolve,
    step_dir,
    write_checkpoint,
)
from repro.sim.link import Queue

#: Payload file holding the pickled state bundle.
STATE_PAYLOAD = "state.pkl"

#: ``meta["kind"]`` for single-simulator checkpoints (the shard
#: engine writes ``kind="shard"`` containers, at every shard count).
KIND_SIM = "sim"


@dataclass
class SimCheckpoint:
    """A restored checkpoint: the live objects plus their manifest."""

    network: Any
    injector: Any = None
    rng: Optional[RngBundle] = None
    extra: Any = None
    manifest: Dict[str, Any] = field(default_factory=dict)
    path: Optional[pathlib.Path] = None

    @property
    def t(self) -> float:
        """Simulated time the checkpoint was taken at."""
        return float(self.manifest.get("meta", {}).get("t", 0.0))


def dumps(obj: Any) -> bytes:
    """Pickle ``obj`` with its queues' state in flat tables."""
    queues: List[Queue] = []

    def shell(queue: Queue):
        queues.append(queue)
        return copyreg.__newobj__, (Queue,)

    buffer = io.BytesIO()
    encoder = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    # A dispatch_table entry costs a dict lookup per object; a
    # reducer_override or persistent_id would cost a Python call.
    encoder.dispatch_table = {**copyreg.dispatch_table, Queue: shell}
    encoder.dump(obj)
    done = 0
    # A table can reach queues the object graph did not: loop until
    # every shell has its row.
    while done < len(queues):
        batch = queues[done:]
        done = len(queues)
        for queue in batch:
            queue.settle()
        encoder.dump([
            (queue, [getattr(queue, name) for name in Queue.__slots__])
            for queue in batch
        ])
    encoder.dump(None)
    return buffer.getvalue()


def loads(blob: bytes) -> Any:
    """Rebuild an object graph written by :func:`dumps`."""
    decoder = pickle.Unpickler(io.BytesIO(blob))
    obj = decoder.load()
    table = decoder.load()
    while table is not None:
        for queue, values in table:
            for name, value in zip(Queue.__slots__, values):
                setattr(queue, name, value)
        table = decoder.load()
    return obj


def save(
    root: PathLike,
    network,
    injector=None,
    rng: Optional[RngBundle] = None,
    extra: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Write the next sequenced checkpoint of a live run under ``root``.

    Args:
        root: checkpoint root; the snapshot lands in ``root/ckpt-<N>``.
        network: any of the three engines; its ``kind`` goes into the
            manifest.
        injector: the attached :class:`~repro.faults.FaultInjector`, if
            any.  Must be passed so its schedule position and refcounts
            are captured *in the same pickle* (aliasing with the
            network is preserved).
        rng: the run's :class:`RngBundle` (stream positions ride along).
        extra: any picklable caller state to carry (e.g. sample lists).
        meta: extra JSON-serialisable manifest metadata.

    Returns the checkpoint directory.  The write is crash-consistent:
    payloads first, manifest last, each via atomic rename.  Nothing is
    pruned here: :func:`repro.ckpt.prune` (``repro ckpt prune``) is the
    one retention tool.
    """
    blob = dumps({
        "network": network,
        "injector": injector,
        "rng": rng,
        "extra": extra,
    })
    step = next_step(root)
    full_meta = {
        "kind": KIND_SIM,
        "engine": network.kind,
        "t": network.now,
        "step": step,
        "records": len(network.records),
    }
    if meta:
        full_meta.update(meta)
    return write_checkpoint(
        step_dir(root, step), {STATE_PAYLOAD: blob}, full_meta
    )


def restore(path: PathLike) -> SimCheckpoint:
    """Load a checkpoint (verifying it) back into live objects.

    ``path`` may be one ``ckpt-<N>`` directory or a checkpoint root --
    for a root, the newest *valid* checkpoint is used (partial
    directories from a killed writer are skipped).

    The restored registry (``checkpoint.network.obs``) has no sinks;
    re-attach output files if the resumed run should export telemetry.
    """
    path = resolve(path)
    manifest = read_manifest(path)
    kind = manifest.get("meta", {}).get("kind")
    if kind != KIND_SIM:
        raise CheckpointError(
            f"{path} holds a {kind!r} checkpoint, not a simulator "
            "snapshot (resume a shard container through "
            "repro.shard.run_packet_trial(resume=True))"
        )
    blob = read_payload(path, STATE_PAYLOAD)
    try:
        state = loads(blob)
    except Exception as exc:
        raise CheckpointError(f"cannot unpickle {path}: {exc}")
    return SimCheckpoint(
        network=state["network"],
        injector=state.get("injector"),
        rng=state.get("rng"),
        extra=state.get("extra"),
        manifest=manifest,
        path=path,
    )


def check_args(
    every: Optional[float], directory, resume: bool = False
) -> None:
    """Refuse checkpoint arguments a run would ignore, before it starts.

    ``every`` and ``resume`` need ``directory`` (the run's
    ``checkpoint_dir``); ``every`` must be positive.  Without ``every``
    nothing is written, so the directory is refused unless the run
    resumes from it.
    """
    if every is None:
        if directory is not None and not resume:
            raise ValueError("checkpoint_dir requires checkpoint_every")
    elif every <= 0:
        raise ValueError(f"checkpoint_every must be > 0, got {every}")
    if directory is None:
        if every is not None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if resume:
            raise ValueError("resume requires checkpoint_dir")


def run_checkpointed(
    network,
    root: PathLike,
    every: float,
    until: float = math.inf,
    injector=None,
    rng: Optional[RngBundle] = None,
    extra: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> List[pathlib.Path]:
    """Run to ``until``, checkpointing every ``every`` simulated seconds.

    Respects the byte-identity contract for every engine: packet chunks
    use plain horizons (absolute event times make any cut exact), fluid
    and hybrid chunks pause at event boundaries via ``stop_after`` and
    only the final segment runs with the horizon-crediting ``until``.
    Resuming the returned checkpoints therefore replays the
    uninterrupted run exactly.

    Returns the checkpoint directories written, oldest first.
    """
    if every <= 0:
        raise ValueError(f"checkpoint interval must be > 0, got {every}")
    is_packet = network.kind == "packet"
    saved: List[pathlib.Path] = []
    while True:
        now = network.now
        t_next = (math.floor(now / every) + 1) * every
        if is_packet:
            # The packet clock moves to the horizon even when no event
            # fires before it; skip empty intervals (e.g. the far-future
            # RTO-timer drain after the last flow completes) so every
            # chunk processes at least one event instead of writing
            # thousands of do-nothing snapshots.
            t_event = network.loop.next_time()
            if t_event is None:
                # Heap drained: finish with horizon semantics (a plain
                # run(until=...) still advances the clock there).
                network.run(until=until)
                break
            if t_event >= t_next:
                t_next = (math.floor(t_event / every) + 1) * every
        if t_next >= until:
            # Final segment: horizon semantics (fluid credits partial
            # progress at ``until``; packet sets the clock there).
            network.run(until=until)
            break
        if is_packet:
            network.run(until=t_next)
        else:
            # stop_after pauses at the first event boundary past t_next;
            # the horizon rides along so a boundary-free tail still gets
            # the exact delivered-bytes crediting at ``until``.
            network.run(until=until, stop_after=t_next)
        if not network.has_pending():
            break
        saved.append(save(
            root, network, injector=injector, rng=rng, extra=extra,
            meta=meta,
        ))
    return saved
