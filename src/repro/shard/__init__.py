"""Plane-sharded parallel simulation (:mod:`repro.shard`).

The paper's N dataplanes are disjoint in the core and meet only at the
hosts, so the plane index is a parallel-decomposition boundary: this
package partitions a P-Net by dataplane, runs one simulator per shard,
and advances all shards in lockstep *epochs* of simulated time,
exchanging only the cross-plane state the model actually has --
MPTCP's LIA coupling terms and the shared send-buffer pool of spanning
connections -- as compact digests at each barrier.

Entry point: :func:`run_packet_trial` -- epoch-synced packet
simulation (uncoupled workers free-run, idle coupled ones jump to
their next event).  Every shard count runs the one barrier loop; one
shard is simply every plane in one in-process worker.  Its ``shards``,
``epoch`` and ``backend`` arguments shape the run, and no run-wide
setting changes them; only the safety deadline ``PNET_SHARD_TIMEOUT``
is a :class:`repro.config.RunConfig` field.  Fluid runs stay serial:
the max-min solve is one global allocation.  A sharded run takes no
fault schedule: the hosts' reaction to a fault spans planes, so fault
runs attach a :class:`repro.faults.FaultInjector` to an unsharded
engine and run through :func:`repro.api.run_trial`.

Backends (:mod:`repro.shard.channel`): ``shm``, the default, runs one
worker process per shard and talks to each over its own pipe (the
name is kept from an earlier shared-memory transport); ``local`` runs
every shard in the calling process as the reference.

Guarantees: ``shards=1`` is byte-identical to a plain
:class:`~repro.sim.network.PacketNetwork` run (records, telemetry and
trace events) and keeps completion callbacks; multi-shard results are
deterministic for a given shard count and identical across the
``local`` and ``shm`` channel backends; plane-local flows are
unaffected by sharding, and only spanning MPTCP connections see the
epoch-staleness approximation (bounded, and converging to serial as
``epoch -> 0``).  A sharded run
leaves no worker process behind, and the workers of an engine that
is killed exit on their pipes' EOF.
"""

from repro.shard.channel import ShardWorkerError
from repro.shard.engine import (
    DEFAULT_EPOCH,
    ShardResult,
    ShardSafetyError,
    run_packet_trial,
)
from repro.shard.partition import ShardPlan, classify

__all__ = [
    "DEFAULT_EPOCH",
    "ShardPlan",
    "ShardResult",
    "ShardSafetyError",
    "ShardWorkerError",
    "classify",
    "run_packet_trial",
]
