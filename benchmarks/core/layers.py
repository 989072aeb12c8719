"""Spans and per-layer attribution for the core benchmark.

Layers are named after the repository's modules through one fixed table
(:data:`LAYER_TABLE`).  A profiled repetition's ``tottime`` is bucketed
through it: a function in a listed ``repro`` module belongs to that
module's layer, any other ``repro`` module and the benchmark's own code
to ``unattributed``, and code outside the repository -- C builtins,
numpy, HiGHS, the standard library -- to the layers of its callers, in
proportion to the time each caller spent in it.
"""

from __future__ import annotations

import contextlib
import json
import math
import pathlib
import pstats
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Module prefix -> layer, longest prefix wins.
LAYER_TABLE: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.events", "sim.events"),
    ("repro.sim.link", "sim.link"),
    ("repro.sim.tcp", "sim.tcp"),
    ("repro.sim.dctcp", "sim.tcp"),
    ("repro.sim.mptcp", "sim.mptcp"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.packet", "sim.network"),
    ("repro.sim.rpc", "sim.network"),
    ("repro.fluid.maxmin", "fluid.maxmin"),
    ("repro.fluid.flowsim", "fluid.flowsim"),
    ("repro.hybrid", "hybrid"),
    ("repro.routing", "routing"),
    ("repro.core.path_selection", "routing"),
    ("repro.core.pnet", "routing"),
    ("repro.topology", "topology"),
    ("repro.lp", "lp"),
    ("repro.shard", "shard"),
    ("repro.control", "control"),
    ("repro.ckpt", "ckpt"),
    ("repro.exp", "exp"),
)

UNATTRIBUTED = "unattributed"

#: Every layer, in table order, then ``unattributed``.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for __, layer in LAYER_TABLE)
) + (UNATTRIBUTED,)

#: C builtins with a layer of their own, whoever calls them.
BUILTIN_LAYERS: Tuple[Tuple[str, str], ...] = (("_heapq.", "sim.events"),)

Func = Tuple[str, int, str]


def layer_of_module(module: str) -> str:
    """The layer of a dotted ``repro`` module name."""
    best = ""
    layer = UNATTRIBUTED
    for prefix, name in LAYER_TABLE:
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > len(best):
            best, layer = prefix, name
    return layer


def module_of_file(filename: str, src_dir: pathlib.Path) -> Optional[str]:
    """Dotted module name of a file under ``src_dir`` (None outside it)."""
    try:
        rel = pathlib.Path(filename).resolve().relative_to(src_dir)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def self_times(
    stats: pstats.Stats, src_dir: pathlib.Path, own_dir: pathlib.Path
) -> Dict[str, float]:
    """Profiled ``tottime`` per layer (every layer present, maybe 0)."""
    raw = stats.stats
    src_dir = src_dir.resolve()
    own_dir = own_dir.resolve()
    memo: Dict[Func, Dict[str, float]] = {}

    def home(func: Func) -> Optional[str]:
        """The function's own layer, or None to follow its callers."""
        filename, __, name = func
        if filename == "~":
            for marker, layer in BUILTIN_LAYERS:
                if marker in name:
                    return layer
            return None
        module = module_of_file(filename, src_dir)
        if module is not None:
            return layer_of_module(module)
        if pathlib.Path(filename).resolve().parent == own_dir:
            return UNATTRIBUTED
        return None

    def weights(func: Func, visiting: set) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = home(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = raw[func][4] if func in raw else {}
            total = sum(entry[2] for entry in callers.values())
            if not callers or total <= 0 or func in visiting:
                result = {UNATTRIBUTED: 1.0}
            else:
                visiting.add(func)
                result = {}
                for caller, entry in callers.items():
                    for name, w in weights(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + (
                            w * entry[2] / total
                        )
                visiting.discard(func)
        memo[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (__, ___, tottime, ____, _____) in raw.items():
        for layer, w in weights(func, set()).items():
            totals[layer] += tottime * w
    return totals


def entry_stats(stats: pstats.Stats, fn: Callable) -> Tuple[int, float]:
    """(calls, cumulative seconds) of one Python function in a profile."""
    code = fn.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.stats.get(key)
    if entry is None:
        return 0, 0.0
    return entry[1], entry[3]


@dataclass
class Span:
    """One timed call: name, interval, and the span that contains it."""

    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder; written out once the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: List[Span] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            id=len(self.records),
            name=name,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
        )
        self.records.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def within(self, parent: Span, names: Tuple[str, ...]) -> float:
        """Summed duration of ``parent``'s direct children in ``names``."""
        return sum(
            s.duration
            for s in self.records
            if s.parent == parent.id and s.name in names
        )

    def write(self, path: pathlib.Path) -> None:
        """One JSON object per span; times relative to the first span."""
        origin = self.records[0].start if self.records else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.records:
                row = asdict(record)
                row["start"] -= origin
                row["end"] -= origin
                row["run"] = self.run_id
                handle.write(json.dumps(row) + "\n")
