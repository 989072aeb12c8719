"""Merge per-host farm progress containers into one result set.

Hosts (and the dispatcher) record completed trials in the same
checkpoint-container format the single-host sweep uses: one pickle
mapping each trial's *content hash* to its result, written under a
``ckpt-%08d`` sequence with the manifest last.  Because the hash keys
bake in the trial function, its kwargs and the package source, merging
is a plain dictionary fold -- two containers can only collide on a hash
when they computed the very same trial, and then the values must agree
byte-for-byte.  That is what makes a farm run's merged output
byte-identical to a single-host run at any host/worker/job count.

Farm progress containers use ``kind="farm"``; readers here (and the
sweep resume path) accept ``"sweep"`` and ``"farm"`` interchangeably --
they carry the same payload, the kind records who wrote them.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, Optional

from repro.ckpt.store import (
    CheckpointError,
    claim_step,
    latest,
    prune,
    read_manifest,
    read_payload,
    write_checkpoint,
)
from repro.farm.inventory import FarmError

#: ``meta["kind"]`` of farm progress containers.
KIND_FARM = "farm"

#: Payload name; shared with the sweep container so either reader works.
PROGRESS_PAYLOAD = "sweep.pkl"

#: Kinds that carry a {content hash -> result} progress payload.
PROGRESS_KINDS = ("sweep", KIND_FARM)


def load_progress(root) -> Dict[str, Any]:
    """The completed-trial map from the newest valid container (or {})."""
    chosen = latest(root)
    if chosen is None:
        return {}
    meta = read_manifest(chosen).get("meta", {})
    kind = meta.get("kind")
    if kind not in PROGRESS_KINDS:
        raise CheckpointError(
            f"{chosen} is a {kind!r} checkpoint, not trial progress "
            f"(expected kind {' or '.join(map(repr, PROGRESS_KINDS))})"
        )
    return pickle.loads(read_payload(chosen, PROGRESS_PAYLOAD))


def merge_progress(maps: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold progress maps; same-hash entries must agree byte-for-byte.

    A disagreement means two runs computed the same content key and got
    different results -- a determinism violation worth failing loudly
    over, never papering over by last-writer-wins.
    """
    merged: Dict[str, Any] = {}
    for progress in maps:
        for digest, value in progress.items():
            if digest in merged:
                a = pickle.dumps(
                    merged[digest], protocol=pickle.HIGHEST_PROTOCOL
                )
                b = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
                if a != b:
                    raise FarmError(
                        f"conflicting results for trial {digest}: two "
                        "hosts produced different values for the same "
                        "content key (determinism violation)"
                    )
                continue
            merged[digest] = value
    return merged


def write_progress(
    root,
    done: Dict[str, Any],
    total: int,
    keep_last: Optional[int] = None,
) -> None:
    """Write one farm progress container under ``root`` (concurrency-safe).

    Steps are claimed atomically (``claim_step``) so concurrent writers
    on a shared filesystem never collide, and pruning skips manifest-less
    directories (a sibling's in-flight write looks exactly like one).
    """
    step, directory = claim_step(root)
    write_checkpoint(
        directory,
        {PROGRESS_PAYLOAD: pickle.dumps(
            done, protocol=pickle.HIGHEST_PROTOCOL
        )},
        {"kind": KIND_FARM, "completed": len(done), "total": total},
    )
    if keep_last is not None:
        prune(root, keep_last, remove_invalid=False)


def merge_roots(roots: Iterable, out_root=None) -> Dict[str, Any]:
    """Merge the newest container from each root; optionally write it out."""
    merged = merge_progress(load_progress(root) for root in roots)
    if out_root is not None:
        write_progress(out_root, merged, total=len(merged))
    return merged
