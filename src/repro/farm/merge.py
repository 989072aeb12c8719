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

Farm progress containers are :mod:`repro.ckpt.store`'s trial-progress
containers with ``kind="farm"``; one reader takes ``"sweep"`` and
``"farm"`` alike -- they carry the same payload, the kind records who
wrote them.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterable, Optional

from repro.ckpt import store
from repro.ckpt.store import KIND_FARM, load_progress  # noqa: F401
from repro.farm.inventory import FarmError


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
    """Write one farm progress container under ``root``
    (:func:`repro.ckpt.store.write_progress` with ``kind="farm"``)."""
    store.write_progress(root, done, total, keep_last, kind=KIND_FARM)


def merge_roots(roots: Iterable, out_root=None) -> Dict[str, Any]:
    """Merge the newest container from each root; optionally write it out."""
    merged = merge_progress(load_progress(root) for root in roots)
    if out_root is not None:
        write_progress(out_root, merged, total=len(merged))
    return merged
