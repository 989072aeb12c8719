"""repro.ckpt -- deterministic checkpoint/restore for simulations.

Versioned, content-hashed, crash-consistent snapshots of complete
simulator state, with the hard guarantee that ``run(T1) -> checkpoint
-> restore -> run(T2)`` is byte-identical to an uninterrupted
``run(T2)``.

Layers:

* :mod:`repro.ckpt.store` -- the on-disk container (payloads + SHA-256
  manifest written last, atomic renames, ``ckpt-<N>`` sequencing,
  pruning).  No run prunes its own root: :func:`prune` (``repro ckpt
  prune``) is the one retention tool.
* :mod:`repro.ckpt.snapshot` -- save/restore of live simulator object
  graphs (:func:`save`, :func:`restore`, :func:`run_checkpointed`), and
  their encoding (:func:`dumps`, :func:`loads`), which shard workers
  use too; :func:`check_args` refuses checkpoint arguments a run would
  ignore.
* :mod:`repro.ckpt.rng` -- :class:`RngBundle`, the serializable home
  for every random stream a run owns.

Every checkpoint root has one writer: the run that checkpoints into
it.  Higher layers build on these: the sharded engine checkpoints
per-plane worker snapshots at epoch barriers.  A sweep's finished
trials are kept by the artifact cache (:mod:`repro.exp.cache`), not
here: a rerun resumes from it, and a farm trial whose worker is lost
is recomputed.
"""

from repro.ckpt.rng import RngBundle
from repro.ckpt.snapshot import (
    SimCheckpoint,
    check_args,
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
    "check_args",
    "checkpoints_size_bytes",
    "dumps",
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
    "step_dir",
    "step_of",
    "verify",
    "write_checkpoint",
]
