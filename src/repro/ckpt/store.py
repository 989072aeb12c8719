"""Crash-consistent on-disk checkpoint containers.

A checkpoint is a *directory* holding one or more payload files plus a
``MANIFEST.json`` written **last** via an atomic rename.  The manifest
names every payload with its byte length and SHA-256 digest, so:

* a crash mid-write leaves a directory without a manifest -- never a
  manifest describing files that are missing or truncated;
* :func:`verify` detects any corruption (bit flips, truncation, missing
  or renamed payloads) without unpickling anything;
* :func:`latest` can always pick the newest checkpoint that is actually
  *complete*, skipping partial directories a killed process left behind.

Checkpoints are sequenced under a root as ``ckpt-<step>`` directories
(:func:`next_step` scans the existing names), and :func:`prune` retires
old ones -- the retention half of the same atomic-write discipline the
artifact cache (:mod:`repro.exp.cache`) uses for its entries.  A root
has one writer, the run that checkpoints into it; readers (``repro
ckpt verify``, a resume) may run beside it.

The format is versioned (:data:`FORMAT_VERSION`); readers reject
manifests from a different major format rather than misinterpreting
them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

#: Bump on any incompatible change to the manifest layout or payload
#: encoding; readers refuse other versions.  v2: packet snapshots hold
#: the one-event-per-packet queues and deadline retransmit timers.  v3:
#: fluid and hybrid snapshots hold the fluid engine's active state as
#: arrays, and the bridge's queue table as arrays.  v4: simulator and
#: shard-worker payloads hold queues as shells plus a flat state table
#: (:func:`repro.ckpt.snapshot.dumps`).  v5: a moved flow keeps its id
#: (the packet engine's table of moved flows, the hybrid engine's
#: per-engine id tables, and the control monitor's baselines with a
#: digest of their paths).
FORMAT_VERSION = 5

MANIFEST_NAME = "MANIFEST.json"

_CKPT_DIR_RE = re.compile(r"^ckpt-(\d{8})$")

PathLike = Union[str, pathlib.Path]


class CheckpointError(RuntimeError):
    """A checkpoint is missing, incomplete, corrupt, or incompatible."""


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + ``os.replace``).

    Readers never observe a partial file: they see the old content or
    the new content, nothing in between.  Shared by the checkpoint
    store and the artifact cache.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- writing ----------------------------------------------------------------


def write_checkpoint(
    directory: PathLike,
    payloads: Dict[str, bytes],
    meta: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Write one checkpoint directory, manifest last.

    Args:
        directory: target directory (created; pre-existing payload
            files are overwritten atomically).
        payloads: file name -> raw bytes.  Names must be plain file
            names (no path separators) and may not collide with the
            manifest.
        meta: JSON-serialisable metadata stored in the manifest
            (engine kind, simulated time, step, ...).

    Returns the directory path.  If the process dies before the final
    manifest rename, the directory has no manifest and every reader
    treats it as nonexistent.
    """
    directory = pathlib.Path(directory)
    if not payloads:
        raise ValueError("a checkpoint needs at least one payload")
    files: Dict[str, Dict[str, Any]] = {}
    for name, data in payloads.items():
        if "/" in name or os.sep in name or name == MANIFEST_NAME:
            raise ValueError(f"invalid payload name {name!r}")
        if not isinstance(data, bytes):
            raise TypeError(
                f"payload {name!r} must be bytes, got {type(data).__name__}"
            )
        atomic_write_bytes(directory / name, data)
        files[name] = {
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    manifest = {
        "format_version": FORMAT_VERSION,
        "files": files,
        "meta": meta or {},
    }
    atomic_write_bytes(
        directory / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )
    return directory


# --- reading / verifying ----------------------------------------------------


def read_manifest(directory: PathLike) -> Dict[str, Any]:
    """Load and structurally validate a checkpoint's manifest."""
    directory = pathlib.Path(directory)
    path = directory / MANIFEST_NAME
    try:
        with open(path, "rb") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(
            f"{directory} has no {MANIFEST_NAME} (incomplete checkpoint, "
            "or not a checkpoint directory)"
        ) from None
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable manifest in {directory}: {exc}")
    if not isinstance(manifest, dict) or "format_version" not in manifest:
        raise CheckpointError(f"malformed manifest in {directory}")
    version = manifest["format_version"]
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} in {directory} is not "
            f"supported (this build reads v{FORMAT_VERSION})"
        )
    if not isinstance(manifest.get("files"), dict):
        raise CheckpointError(f"manifest in {directory} lists no files")
    # Structural validation of every file entry up front: a blob written
    # by a different (or corrupted) writer must fail with a named error
    # here, never a bare KeyError deep inside verify/inspect.
    for name, entry in manifest["files"].items():
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("bytes"), int)
            or not isinstance(entry.get("sha256"), str)
        ):
            raise CheckpointError(
                f"manifest in {directory} has a malformed entry for "
                f"payload {name!r} (expected bytes/sha256; foreign or "
                "corrupt manifest?)"
            )
    return manifest


def verify(directory: PathLike) -> Dict[str, Any]:
    """Fully verify a checkpoint; returns its manifest.

    Checks the manifest structure and format version, then every
    payload's presence, length, and SHA-256 digest.  Raises
    :class:`CheckpointError` naming the first problem found -- also
    when a payload disappears while it is being checked (a sibling
    pruned the checkpoint).
    """
    directory = pathlib.Path(directory)
    manifest = read_manifest(directory)
    for name, entry in sorted(manifest["files"].items()):
        path = directory / name
        try:
            size = path.stat().st_size
            if size == entry["bytes"]:
                digest = _sha256_file(path)
        except FileNotFoundError:
            raise CheckpointError(
                f"{directory}: payload {name!r} is missing"
            ) from None
        if size != entry["bytes"]:
            raise CheckpointError(
                f"{directory}: payload {name!r} is {size} bytes, "
                f"manifest says {entry['bytes']} (truncated write?)"
            )
        if digest != entry["sha256"]:
            raise CheckpointError(
                f"{directory}: payload {name!r} hash mismatch "
                f"({digest[:12]}... != {entry['sha256'][:12]}...)"
            )
    return manifest


def is_valid(directory: PathLike) -> bool:
    """Whether :func:`verify` passes (no exception)."""
    try:
        verify(directory)
        return True
    except CheckpointError:
        return False


def read_payload(directory: PathLike, name: str) -> bytes:
    """Read one payload, verifying its digest against the manifest."""
    directory = pathlib.Path(directory)
    manifest = read_manifest(directory)
    entry = manifest["files"].get(name)
    if entry is None:
        raise CheckpointError(
            f"{directory}: no payload {name!r} "
            f"(has {sorted(manifest['files'])})"
        )
    try:
        data = (directory / name).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{directory}: cannot read {name!r}: {exc}")
    if len(data) != entry["bytes"] or (
        hashlib.sha256(data).hexdigest() != entry["sha256"]
    ):
        raise CheckpointError(
            f"{directory}: payload {name!r} fails verification "
            "(truncated or corrupted)"
        )
    return data


def inspect(directory: PathLike) -> Dict[str, Any]:
    """Human-oriented summary: meta, files with sizes, total bytes, validity."""
    directory = pathlib.Path(directory)
    manifest = read_manifest(directory)
    files = {
        name: entry["bytes"]
        for name, entry in sorted(manifest["files"].items())
    }
    return {
        "path": str(directory),
        "format_version": manifest["format_version"],
        "meta": manifest.get("meta", {}),
        "files": files,
        "total_bytes": sum(files.values()),
        "valid": is_valid(directory),
    }


# --- sequenced checkpoints under a root -------------------------------------


def step_of(directory: PathLike) -> Optional[int]:
    """The step number of a ``ckpt-<step>`` directory name (else None)."""
    match = _CKPT_DIR_RE.match(pathlib.Path(directory).name)
    return int(match.group(1)) if match else None


def step_dir(root: PathLike, step: int) -> pathlib.Path:
    return pathlib.Path(root) / f"ckpt-{step:08d}"


def list_checkpoints(
    root: PathLike, valid_only: bool = False
) -> List[pathlib.Path]:
    """``ckpt-*`` directories under ``root``, ascending by step."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    found = [
        path
        for path in root.iterdir()
        if path.is_dir() and step_of(path) is not None
    ]
    found.sort(key=step_of)
    if valid_only:
        found = [path for path in found if is_valid(path)]
    return found


def next_step(root: PathLike) -> int:
    """One past the highest existing step under ``root`` (0 when empty)."""
    existing = list_checkpoints(root)
    return step_of(existing[-1]) + 1 if existing else 0


def latest(root: PathLike) -> Optional[pathlib.Path]:
    """The newest *complete, verified* checkpoint under ``root``.

    Partial directories (killed mid-write: no manifest) and corrupt
    ones are skipped, so resume always lands on consistent state.
    """
    valid = list_checkpoints(root, valid_only=True)
    return valid[-1] if valid else None


def resolve(path: PathLike) -> pathlib.Path:
    """The checkpoint ``path`` names: itself when it holds a manifest,
    else the newest valid ``ckpt-<N>`` under it (a checkpoint root)."""
    path = pathlib.Path(path)
    if (path / MANIFEST_NAME).is_file():
        return path
    chosen = latest(path)
    if chosen is None:
        raise CheckpointError(
            f"no complete checkpoint under {path} (nothing to resume)"
        )
    return chosen


def remove_checkpoint_dir(path: PathLike) -> bool:
    """Race-safely delete one checkpoint directory.

    The directory is first renamed aside (atomic), then deleted, so a
    concurrent reader (``repro ckpt verify`` on a live root) either
    sees the complete directory or none of it -- never a half-deleted
    one.  A directory already gone (``ENOENT`` on the rename) is not an
    error.  Returns whether this call performed the removal.
    """
    path = pathlib.Path(path)
    trash = path.parent / f".trash-{os.getpid()}-{path.name}"
    try:
        os.rename(path, trash)
    except FileNotFoundError:
        return False
    except OSError:
        # Cross-device or locked rename: fall back to direct removal.
        shutil.rmtree(path, ignore_errors=True)
        return True
    shutil.rmtree(trash, ignore_errors=True)
    return True


def prune(root: PathLike, keep_last: int) -> List[pathlib.Path]:
    """Delete all but the newest ``keep_last`` *valid* checkpoints.

    Manifest-less and corrupt directories are deleted too -- they can
    never be resumed from.  The root's one writer is the caller (a run
    pruning after each write) or is gone (``repro ckpt prune``), so a
    manifest-less directory is a killed write, never one in flight.
    Deletions go through :func:`remove_checkpoint_dir`.  Returns the
    removed paths.
    """
    if keep_last < 1:
        raise ValueError(f"keep_last must be >= 1, got {keep_last}")
    removed: List[pathlib.Path] = []
    all_ckpts = list_checkpoints(root)
    valid = [path for path in all_ckpts if is_valid(path)]
    keep = set(map(str, valid[-keep_last:]))
    for path in all_ckpts:
        if str(path) not in keep and remove_checkpoint_dir(path):
            removed.append(path)
    return removed


def checkpoints_size_bytes(root: PathLike) -> int:
    """Total payload+manifest bytes under every ``ckpt-*`` directory."""
    total = 0
    for directory in list_checkpoints(root):
        for path in directory.iterdir():
            if path.is_file():
                total += path.stat().st_size
    return total


def remove_oldest_until(
    entries: Iterable[Tuple[pathlib.Path, int, float]],
    max_bytes: int,
) -> Tuple[List[pathlib.Path], int]:
    """Generic size-bound retention: delete oldest files first.

    Args:
        entries: (path, size_bytes, mtime) triples.
        max_bytes: keep total size at or under this.

    Returns (removed paths, freed bytes).  Shared by ``repro cache
    prune --max-bytes`` and checkpoint retention tooling.
    """
    items = sorted(entries, key=lambda e: (e[2], str(e[0])))
    total = sum(size for __, size, __s in items)
    removed: List[pathlib.Path] = []
    freed = 0
    for path, size, __ in items:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        freed += size
        removed.append(path)
    return removed, freed
