"""Content-keyed on-disk cache for expensive experiment artifacts.

The experiment pipeline recomputes the same intermediate artifacts over
and over: K-shortest-path route sets for a (topology, policy) pair, LP
solutions for a (route set, demand matrix) pair, and whole trial results
for a fixed parameter grid.  All of them are pure functions of their
inputs (every random choice is seeded), so they can be cached on disk and
shared across processes, runs, and experiments.

Keys are *content* keys: :func:`stable_hash` canonically serialises the
input structure (topology link/node/rate sets, policy fingerprints,
traffic pairs, demands) so two logically identical inputs hit the same
entry no matter which process computed it.  Every entry is also keyed
by the hash of the ``repro`` package source (:func:`content_hash`), so
no entry outlives an edit to the code that computed it.  Values are
pickles written atomically (temp file + ``os.replace``) so concurrent
writers can never interleave partial entries; a corrupted or truncated
entry is discarded and recomputed rather than crashing the run.

Knobs (:class:`~repro.config.RunConfig` fields):

* ``PNET_CACHE_DIR`` -- cache root (default ``~/.cache/pnet``);
* ``PNET_CACHE=0``   -- disable the cache entirely (every get misses,
  every put is dropped).
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
import pickle
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.ckpt.store import atomic_write_bytes, remove_oldest_until
from repro.config import current
from repro.topology.graph import Topology

#: Bump when the on-disk format or key semantics change; old entries are
#: simply never hit again (they are keyed under the old version).  v2:
#: every entry is keyed by the package source hash.
CACHE_VERSION = 2

#: Root of the ``repro`` package source tree.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent

_MISS = object()


# --- canonical hashing -----------------------------------------------------


def _canonical_bytes(obj: Any, out: "hashlib._Hash") -> None:
    """Feed a canonical byte encoding of ``obj`` into a hash object.

    Supports the closed set of types experiment keys are built from.
    Floats use ``repr`` (shortest round-trip form), dicts are sorted by
    their encoded keys, and every value is tagged with its type so e.g.
    ``1`` and ``1.0`` and ``"1"`` hash differently.
    """
    if obj is None:
        out.update(b"N")
    elif isinstance(obj, bool):
        out.update(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        out.update(b"i" + repr(obj).encode())
    elif isinstance(obj, float):
        out.update(b"f" + repr(obj).encode())
    elif isinstance(obj, str):
        encoded = obj.encode()
        out.update(b"s" + str(len(encoded)).encode() + b":" + encoded)
    elif isinstance(obj, bytes):
        out.update(b"y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, (list, tuple)):
        out.update(b"(")
        for item in obj:
            _canonical_bytes(item, out)
        out.update(b")")
    elif isinstance(obj, (set, frozenset)):
        out.update(b"{")
        for item in sorted(stable_hash(i) for i in obj):
            out.update(item.encode())
        out.update(b"}")
    elif isinstance(obj, dict):
        out.update(b"[")
        entries = sorted(
            (stable_hash(k), k, v) for k, v in obj.items()
        )
        for __, key, value in entries:
            _canonical_bytes(key, out)
            _canonical_bytes(value, out)
        out.update(b"]")
    else:
        raise TypeError(
            f"cannot canonically hash {type(obj).__name__!r} "
            f"(build keys from primitives, tuples, lists, sets, dicts)"
        )


def stable_hash(obj: Any) -> str:
    """Deterministic hex digest of a nested primitive structure.

    Stable across processes and runs (unlike ``hash()``, which is
    randomised per process for strings).
    """
    digest = hashlib.sha256()
    _canonical_bytes(obj, digest)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _source_tree_hash(root: pathlib.Path) -> str:
    """Hash of every ``.py`` file under ``root``: relative path plus
    bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix().encode()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


def content_hash(key: Any) -> str:
    """The hash an entry is stored under: ``key`` together with the
    source of the whole ``repro`` package, so editing any module the
    entry's computation could run misses it."""
    return stable_hash((_source_tree_hash(_PACKAGE_ROOT), key))


def topology_hash(topo: Topology) -> str:
    """Content hash of a topology.

    Covers everything routing and LP solves can observe: the node set
    with kinds, every link with its capacity and propagation delay, and
    the set of currently-failed links.  The human-readable ``name`` is
    deliberately excluded so identically-built topologies share cache
    entries regardless of labelling.
    """
    return stable_hash(
        (
            "topology",
            sorted((n, topo.kind(n)) for n in topo.nodes),
            sorted(
                (l.u, l.v, l.capacity, l.propagation) for l in topo.links
            ),
            sorted(topo.failed_links),
        )
    )


def pnet_hash(pnet) -> str:
    """Content hash of a parallel network: the ordered plane hashes."""
    return stable_hash(("pnet", [topology_hash(p) for p in pnet.planes]))


# --- the cache -------------------------------------------------------------


class ArtifactCache:
    """A content-keyed pickle store under one root directory.

    Entries live at ``<root>/v<version>/<kind>/<keyhash>.pkl``.  ``kind``
    namespaces artifact types ("routes", "lp", "trial", ...) so stats and
    selective clearing stay possible.  ``root`` defaults to the current
    config's ``cache_dir``, and the config's ``cache`` switches it on.
    """

    def __init__(self, root: Optional[pathlib.Path] = None):
        config = current(cache_dir=root)
        self.root = config.cache_dir or pathlib.Path.home() / ".cache/pnet"
        self.enabled = config.cache
        self.hits = 0
        self.misses = 0

    def _path(self, kind: str, key: Any) -> pathlib.Path:
        return (
            self.root
            / f"v{CACHE_VERSION}"
            / kind
            / f"{content_hash(key)}.pkl"
        )

    def get(self, kind: str, key: Any, default: Any = None) -> Any:
        """Cached value, or ``default`` on a miss.

        A corrupted entry (truncated write, wrong format, unpicklable
        payload) is deleted and reported as a miss.
        """
        if not self.enabled:
            self.misses += 1
            return default
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return default
        except Exception:
            # Corrupted entry: discard and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return default
        self.hits += 1
        return value

    def put(self, kind: str, key: Any, value: Any) -> None:
        """Store ``value`` atomically (temp file + rename)."""
        if not self.enabled:
            return
        atomic_write_bytes(
            self._path(kind, key),
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def get_or_compute(self, kind: str, key: Any, compute) -> Any:
        """``get`` falling back to ``compute()`` (whose result is stored)."""
        value = self.get(kind, key, _MISS)
        if value is not _MISS:
            return value
        value = compute()
        self.put(kind, key, value)
        return value

    # --- maintenance ------------------------------------------------------

    def entries(self) -> Iterable[pathlib.Path]:
        if not self.root.exists():
            return
        yield from self.root.rglob("*.pkl")

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def disk_stats(self) -> Dict[str, Any]:
        """On-disk inventory: entry count and bytes, total and per kind.

        ``kinds`` maps each artifact kind ("routes", "lp", "trial", ...)
        to ``{"entries", "bytes"}``; drives ``repro cache stats``.
        """
        kinds: Dict[str, Dict[str, int]] = {}
        total_entries = 0
        total_bytes = 0
        for path in self.entries():
            kind = path.parent.name
            bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            try:
                size = path.stat().st_size
            except OSError:
                continue
            bucket["entries"] += 1
            bucket["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": dict(sorted(kinds.items())),
        }

    def prune(self, max_bytes: int) -> Tuple[int, int]:
        """Evict oldest entries (by mtime) until at most ``max_bytes`` remain.

        Returns ``(entries_removed, bytes_freed)``.  Eviction order is
        deterministic for equal mtimes (path tiebreak); a vanished file
        (concurrent prune) is skipped, not an error.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        triples = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            triples.append((path, stat.st_size, stat.st_mtime))
        removed, freed = remove_oldest_until(triples, max_bytes)
        return len(removed), freed


# One instance per (cache_dir, cache), so a changed config (e.g. in tests)
# takes effect without restarting the process.
_instances: Dict[Tuple[pathlib.Path, bool], ArtifactCache] = {}


def get_cache() -> ArtifactCache:
    """The process-wide cache for the current config's root."""
    config = current()
    key = (config.cache_dir, config.cache)
    cache = _instances.get(key)
    if cache is None:
        cache = _instances[key] = ArtifactCache(config.cache_dir)
    return cache
