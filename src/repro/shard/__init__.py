"""Plane-sharded parallel simulation (:mod:`repro.shard`).

The paper's N dataplanes are disjoint in the core and meet only at the
hosts, so the plane index is a parallel-decomposition boundary: this
package partitions a P-Net by dataplane (``PNET_SHARDS`` workers),
runs one simulator per shard, and advances all shards in lockstep
*epochs* of simulated time, exchanging only the cross-plane state the
model actually has -- MPTCP's LIA coupling terms and the shared
send-buffer pool of spanning connections -- as compact digests at each
barrier.

Entry points:

* :func:`run_packet_trial` -- epoch-synced packet simulation with
  conservative-PDES lookahead (barrier rounds batched up to the
  minimum spanning-path RTT; uncoupled workers free-run).  Fluid runs
  stay serial: the max-min solve is one global allocation.
* ``PNET_SHARDS`` / ``PNET_EPOCH`` / ``PNET_LOOKAHEAD`` /
  ``PNET_SHARD_BACKEND`` / ``PNET_SHARD_TIMEOUT``: fields of
  :class:`repro.config.RunConfig`.

Guarantees: ``PNET_SHARDS=1`` (or ``epoch=0``) is byte-identical to
the pre-shard serial simulators; multi-shard results are deterministic
for a given shard count and identical across the ``local`` and
``shm`` channel backends; plane-local flows are unaffected by sharding, and
only spanning MPTCP connections see the epoch-staleness approximation
(bounded, and converging to serial as ``epoch -> 0``).
"""

from repro.config import DEFAULT_EPOCH
from repro.shard.channel import ShardWorkerError
from repro.shard.engine import (
    ShardResult,
    ShardSafetyError,
    run_packet_trial,
)
from repro.shard.lookahead import derive_lookahead, epochs_per_sync
from repro.shard.partition import ShardPlan, classify, serial_fallback

__all__ = [
    "DEFAULT_EPOCH",
    "ShardPlan",
    "ShardResult",
    "ShardSafetyError",
    "ShardWorkerError",
    "classify",
    "derive_lookahead",
    "epochs_per_sync",
    "run_packet_trial",
    "serial_fallback",
]
