"""Snapshot/restore of live simulator object graphs.

A checkpoint captures the *complete* state of a run in one pickle: the
event heap and clock, TCP/MPTCP connection and LIA-coupling state,
switch/NIC queue contents, fluid rate state, the
:class:`~repro.faults.FaultInjector`'s remaining schedule and link
refcounts, the :mod:`repro.obs` registry (minus its file sinks), and
the run's :class:`~repro.ckpt.rng.RngBundle`.  Everything is pickled
**together** so aliasing is preserved -- the injector's planes are the
simulator's planes before and after restore, and pending heap events
keep pointing at the same source objects.

The hard guarantee (pinned by ``tests/test_ckpt_resume.py``):
``run(T1) -> save -> restore -> run(T2)`` produces records and
deterministic telemetry byte-identical to an uninterrupted ``run(T2)``.
For the packet engine any ``T1`` works (event times are absolute).  For
the fluid engine the chunk boundary must be an *event boundary* --
:meth:`FluidSimulator.run`'s ``stop_after`` pauses there without the
horizon crediting that would perturb later completion times by ulps;
:func:`run_checkpointed` handles the distinction.
"""

from __future__ import annotations

import math
import pathlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.ckpt.rng import RngBundle
from repro.ckpt.store import (
    CheckpointError,
    PathLike,
    claim_step,
    latest,
    prune,
    read_manifest,
    read_payload,
    write_checkpoint,
)
from repro.fluid.flowsim import FluidSimulator
from repro.sim.network import PacketNetwork

#: Payload file holding the pickled state bundle.
STATE_PAYLOAD = "state.pkl"

#: ``meta["kind"]`` for single-simulator checkpoints (the sharded
#: engine writes kind="shard" containers; the sweep runner "sweep").
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


def _engine_of(network) -> str:
    if isinstance(network, PacketNetwork):
        return "packet"
    if isinstance(network, FluidSimulator):
        return "fluid"
    # Lazy: repro.hybrid imports repro.ckpt.rng, so a module-level
    # import here would cycle through the package __init__.
    from repro.hybrid.engine import HybridSimulator

    if isinstance(network, HybridSimulator):
        return "hybrid"
    raise TypeError(
        f"cannot checkpoint {type(network).__name__}; expected "
        "PacketNetwork, FluidSimulator or HybridSimulator"
    )


def save(
    root: PathLike,
    network,
    injector=None,
    rng: Optional[RngBundle] = None,
    extra: Any = None,
    meta: Optional[Dict[str, Any]] = None,
    keep_last: Optional[int] = None,
) -> pathlib.Path:
    """Write the next sequenced checkpoint of a live run under ``root``.

    Args:
        root: checkpoint root; the snapshot lands in ``root/ckpt-<N>``.
        network: a :class:`PacketNetwork`, :class:`FluidSimulator` or
            :class:`~repro.hybrid.engine.HybridSimulator`.
        injector: the attached :class:`~repro.faults.FaultInjector`, if
            any.  Must be passed so its schedule position and refcounts
            are captured *in the same pickle* (aliasing with the
            network is preserved).
        rng: the run's :class:`RngBundle` (stream positions ride along).
        extra: any picklable caller state to carry (e.g. sample lists).
        meta: extra JSON-serialisable manifest metadata.
        keep_last: after writing, prune to the newest N checkpoints.

    Returns the checkpoint directory.  The write is crash-consistent:
    payloads first, manifest last, each via atomic rename.
    """
    engine = _engine_of(network)
    blob = pickle.dumps(
        {
            "network": network,
            "injector": injector,
            "rng": rng,
            "extra": extra,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    # claim_step (atomic mkdir) rather than a bare next_step: two
    # writers sharing a root -- e.g. a farm worker plus the stalled
    # worker it replaced -- land in distinct step directories.
    step, directory = claim_step(root)
    full_meta = {
        "kind": KIND_SIM,
        "engine": engine,
        "t": network.now,
        "step": step,
        "records": len(network.records),
    }
    if meta:
        full_meta.update(meta)
    write_checkpoint(directory, {STATE_PAYLOAD: blob}, full_meta)
    if keep_last is not None:
        # Writer-side retention must never touch a manifest-less dir: it
        # may be a live sibling's in-flight write, not a dead one's junk.
        prune(root, keep_last, remove_invalid=False)
    return directory


def restore(path: PathLike) -> SimCheckpoint:
    """Load a checkpoint (verifying it) back into live objects.

    ``path`` may be one ``ckpt-<N>`` directory or a checkpoint root --
    for a root, the newest *valid* checkpoint is used (partial
    directories from a killed writer are skipped).

    The restored registry (``checkpoint.network.obs``) has no sinks;
    re-attach output files if the resumed run should export telemetry.
    """
    path = pathlib.Path(path)
    manifest = read_manifest(path) if (path / "MANIFEST.json").is_file() \
        else None
    if manifest is None:
        chosen = latest(path)
        if chosen is None:
            raise CheckpointError(
                f"no complete checkpoint under {path} (nothing to resume)"
            )
        path = chosen
        manifest = read_manifest(path)
    kind = manifest.get("meta", {}).get("kind")
    if kind != KIND_SIM:
        raise CheckpointError(
            f"{path} holds a {kind!r} checkpoint, not a simulator "
            "snapshot (sweep/shard containers have their own loaders)"
        )
    blob = read_payload(path, STATE_PAYLOAD)
    try:
        state = pickle.loads(blob)
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


def run_checkpointed(
    network,
    root: PathLike,
    every: float,
    until: float = math.inf,
    injector=None,
    rng: Optional[RngBundle] = None,
    extra: Any = None,
    keep_last: Optional[int] = None,
    meta: Optional[Dict[str, Any]] = None,
    on_checkpoint=None,
) -> List[pathlib.Path]:
    """Run to ``until``, checkpointing every ``every`` simulated seconds.

    Respects the byte-identity contract for every engine: packet chunks
    use plain horizons (absolute event times make any cut exact), fluid
    and hybrid chunks pause at event boundaries via ``stop_after`` and
    only the final segment runs with the horizon-crediting ``until``.
    Resuming the returned checkpoints therefore replays the
    uninterrupted run exactly.

    ``on_checkpoint``, if given, is called with each written checkpoint
    directory -- a progress hook (farm workers report liveness per
    step; tests pace the run) that must not mutate simulator state.

    Returns the checkpoint directories written, oldest first.
    """
    if every <= 0:
        raise ValueError(f"checkpoint interval must be > 0, got {every}")
    is_packet = isinstance(network, PacketNetwork)
    _engine_of(network)  # type check up front
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
                if math.isinf(until):
                    network.run()
                else:
                    network.run(until=until)
                break
            if t_event >= t_next:
                t_next = (math.floor(t_event / every) + 1) * every
        if t_next >= until:
            # Final segment: horizon semantics (fluid credits partial
            # progress at ``until``; packet sets the clock there).
            if math.isinf(until):
                network.run()
            else:
                network.run(until=until)
            break
        if is_packet:
            network.run(until=t_next)
        else:
            # stop_after pauses at the first event boundary past t_next;
            # the horizon rides along so a boundary-free tail still gets
            # the exact delivered-bytes crediting at ``until``.
            network.run(
                until=None if math.isinf(until) else until,
                stop_after=t_next,
            )
        if not network.has_pending():
            break
        saved.append(save(
            root, network, injector=injector, rng=rng, extra=extra,
            meta=meta, keep_last=keep_last,
        ))
        if on_checkpoint is not None:
            on_checkpoint(saved[-1])
    return saved
