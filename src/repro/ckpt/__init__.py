"""repro.ckpt -- deterministic checkpoint/restore for simulations.

Versioned, content-hashed, crash-consistent snapshots of complete
simulator state, with the hard guarantee that ``run(T1) -> checkpoint
-> restore -> run(T2)`` is byte-identical to an uninterrupted
``run(T2)``.

Layers:

* :mod:`repro.ckpt.store` -- the on-disk container (payloads + SHA-256
  manifest written last, atomic renames, ``ckpt-<N>`` sequencing,
  pruning).
* :mod:`repro.ckpt.snapshot` -- save/restore of live simulator object
  graphs (:func:`save`, :func:`restore`, :func:`run_checkpointed`), and
  their encoding (:func:`dumps`, :func:`loads`), which shard workers
  use too.
* :mod:`repro.ckpt.rng` -- :class:`RngBundle`, the serializable home
  for every random stream a run owns.

Higher layers build on these: the sharded engine checkpoints per-plane
worker snapshots at epoch barriers, and the experiment runner and the
run farm keep trial progress in one container
(:func:`repro.ckpt.store.write_progress`; ``--checkpoint-every`` /
``--resume``).
"""

from repro.ckpt.rng import RngBundle, get_bundle, set_bundle
from repro.ckpt.snapshot import (
    SimCheckpoint,
    dumps,
    loads,
    restore,
    run_checkpointed,
    save,
)
from repro.ckpt.store import (
    FORMAT_VERSION,
    CheckpointError,
    atomic_write_bytes,
    checkpoints_size_bytes,
    claim_step,
    inspect,
    is_valid,
    latest,
    list_checkpoints,
    next_step,
    prune,
    read_manifest,
    read_payload,
    remove_checkpoint_dir,
    resolve,
    step_dir,
    step_of,
    verify,
    write_checkpoint,
)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "RngBundle",
    "SimCheckpoint",
    "atomic_write_bytes",
    "checkpoints_size_bytes",
    "claim_step",
    "dumps",
    "get_bundle",
    "inspect",
    "is_valid",
    "latest",
    "list_checkpoints",
    "loads",
    "next_step",
    "prune",
    "read_manifest",
    "read_payload",
    "remove_checkpoint_dir",
    "resolve",
    "restore",
    "run_checkpointed",
    "save",
    "set_bundle",
    "step_dir",
    "step_of",
    "verify",
    "write_checkpoint",
]
