"""Pluggable output sinks for metric snapshots and trace events.

Every sink consumes flat ``dict`` rows (as produced by
:meth:`repro.obs.registry.Registry.snapshot` and
:meth:`~repro.obs.trace.TraceEvent.as_dict`) through a tiny interface:
``write(row)`` then ``close()``.

* :class:`JsonlSink` -- one sorted-key JSON object per line; the one
  file format (``python -m repro obs summarize`` reads it).
* :class:`MemorySink` -- keeps rows in a list (tests, notebooks).

JSON rows are rendered with ``sort_keys=True`` and Python ``repr``
floats, so identical data serialises to identical bytes -- the property
the cross-worker determinism tests pin down.
"""

from __future__ import annotations

import io
import json
import pathlib
from typing import Any, Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]


class Sink:
    """Interface: ``write`` rows, then ``close`` once."""

    def write(self, row: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemorySink(Sink):
    """Accumulates rows in :attr:`rows` (for tests and notebooks)."""

    def __init__(self):
        self.rows: List[Dict[str, Any]] = []
        self.closed = False

    def write(self, row: Dict[str, Any]) -> None:
        self.rows.append(row)

    def close(self) -> None:
        self.closed = True


class JsonlSink(Sink):
    """One JSON object per line, keys sorted for byte-stable output."""

    def __init__(self, target: Union[PathLike, io.TextIOBase]):
        if isinstance(target, (str, pathlib.Path)):
            path = pathlib.Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._owns = True
            self.path: Optional[pathlib.Path] = path
        else:
            self._fh = target
            self._owns = False
            self.path = None

    def write(self, row: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(row, sort_keys=True))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


def read_jsonl(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a JSONL metrics/trace file back into rows."""
    rows: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
