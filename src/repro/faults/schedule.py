"""Timed, validated fault schedules with a deterministic JSON form.

A :class:`FaultSchedule` is the unit of replay for every availability
study: an ordered list of :class:`FaultEvent` -- link down/up, switch
down/up (fails all incident links), whole-plane down/up, host-uplink
flaps -- that either simulator executes at exact simulated times via
:class:`repro.faults.FaultInjector`.  Schedules round-trip through JSON
byte-for-byte (``dumps`` is canonical: sorted keys, fixed indentation),
so a chaos run is fully described by one small file and a re-run of the
same file reproduces identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.topology.graph import HOST, link_key

#: Event kinds, as ``(element, transition)`` pairs.
LINK_DOWN = "link_down"
LINK_UP = "link_up"
SWITCH_DOWN = "switch_down"
SWITCH_UP = "switch_up"
PLANE_DOWN = "plane_down"
PLANE_UP = "plane_up"
HOST_UPLINK_DOWN = "host_uplink_down"
HOST_UPLINK_UP = "host_uplink_up"

KINDS = frozenset({
    LINK_DOWN, LINK_UP, SWITCH_DOWN, SWITCH_UP,
    PLANE_DOWN, PLANE_UP, HOST_UPLINK_DOWN, HOST_UPLINK_UP,
})

#: Fields each kind requires beyond ``at``/``kind``/``plane``.
_EXTRA_FIELDS = {
    LINK_DOWN: ("u", "v"),
    LINK_UP: ("u", "v"),
    SWITCH_DOWN: ("node",),
    SWITCH_UP: ("node",),
    PLANE_DOWN: (),
    PLANE_UP: (),
    HOST_UPLINK_DOWN: ("host",),
    HOST_UPLINK_UP: ("host",),
}

#: Schedule-file format version (bump on incompatible change).
FORMAT_VERSION = 1


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault transition.

    Attributes:
        at: simulated time in seconds (>= 0).
        kind: one of :data:`KINDS`.
        plane: dataplane index the event applies to.
        u, v: link endpoints (link events only).
        node: switch name (switch events only).
        host: host name (host-uplink events only).
    """

    at: float
    kind: str
    plane: int
    u: Optional[str] = None
    v: Optional[str] = None
    node: Optional[str] = None
    host: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; pick one of "
                f"{sorted(KINDS)}"
            )
        if self.at < 0:
            raise ValueError(f"event time must be >= 0, got {self.at}")
        if self.plane < 0:
            raise ValueError(f"plane index must be >= 0, got {self.plane}")
        required = _EXTRA_FIELDS[self.kind]
        for name in required:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} event requires {name!r}")
        for name in ("u", "v", "node", "host"):
            if name not in required and getattr(self, name) is not None:
                raise ValueError(
                    f"{self.kind} event does not take {name!r}"
                )

    @property
    def is_down(self) -> bool:
        return self.kind.endswith("_down")

    def links(self, plane) -> List[Tuple[str, str]]:
        """The undirected link keys this event targets on ``plane`` (the
        event's plane Topology), in stable order."""
        if self.u is not None:
            return [link_key(self.u, self.v)]
        node = self.node if self.node is not None else self.host
        if node is not None:
            return [
                l.key for l in plane.incident_links(node, live_only=False)
            ]
        return [l.key for l in plane.links]

    def hold(self, plane, held, fail, restore) -> List[Tuple[str, str]]:
        """Apply this event to reference-counted link holds.

        ``held`` maps ``(plane index, link key)`` to the number of down
        events holding that link failed, so overlapping events compose:
        a down event fails a link on its first hold, and an up event
        restores it on releasing the last hold (links it does not hold
        are left alone).  ``fail`` and ``restore`` are called as
        ``fn(plane_idx, u, v)``.  Returns the keys that changed state.
        """
        changed = []
        for key in self.links(plane):
            count = held.get((self.plane, key), 0)
            if self.is_down:
                held[(self.plane, key)] = count + 1
                if count == 0:
                    fail(self.plane, *key)
                    changed.append(key)
            elif count:
                held[(self.plane, key)] = count - 1
                if count == 1:
                    restore(self.plane, *key)
                    changed.append(key)
        return changed

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dict with only the fields the kind uses."""
        out: Dict[str, Any] = {
            "at": self.at, "kind": self.kind, "plane": self.plane,
        }
        for name in _EXTRA_FIELDS[self.kind]:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        known = {"at", "kind", "plane", "u", "v", "node", "host"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown event fields {sorted(unknown)}")
        if "kind" not in data or "at" not in data or "plane" not in data:
            raise ValueError("event requires 'at', 'kind' and 'plane'")
        return cls(
            at=float(data["at"]),
            kind=str(data["kind"]),
            plane=int(data["plane"]),
            u=data.get("u"),
            v=data.get("v"),
            node=data.get("node"),
            host=data.get("host"),
        )


class FaultSchedule:
    """An immutable, time-ordered list of :class:`FaultEvent`.

    Events are stably sorted by time at construction (ties keep input
    order, so "fail then restore at the same instant" replays exactly as
    written).  ``validate(pnet)`` checks every referenced element exists
    before a run starts -- a schedule typo fails fast, not mid-chaos.
    """

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.at)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaultSchedule) and self.events == other.events
        )

    def __repr__(self) -> str:
        end = self.events[-1].at if self.events else 0.0
        return f"FaultSchedule(events={len(self.events)}, end={end})"

    @property
    def duration(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return self.events[-1].at if self.events else 0.0

    def validate(self, pnet) -> None:
        """Check every event references an element of ``pnet``.

        Raises ValueError on the first unknown plane, link, switch, or
        host.  Accepts any object with ``planes`` (a :class:`PNet` or a
        simulator).
        """
        planes = pnet.planes
        for event in self.events:
            if event.plane >= len(planes):
                raise ValueError(
                    f"event at t={event.at} names plane {event.plane} but "
                    f"the network has {len(planes)}"
                )
            plane = planes[event.plane]
            if event.u is not None:
                if not plane.has_link(event.u, event.v):
                    raise ValueError(
                        f"no link {event.u}--{event.v} in plane "
                        f"{event.plane}"
                    )
            if event.node is not None:
                if event.node not in plane or plane.kind(event.node) == HOST:
                    raise ValueError(
                        f"{event.node!r} is not a switch of plane "
                        f"{event.plane}"
                    )
            if event.host is not None:
                if event.host not in plane or plane.kind(event.host) != HOST:
                    raise ValueError(
                        f"{event.host!r} is not a host of plane "
                        f"{event.plane}"
                    )

    # --- canonical JSON form ------------------------------------------------

    def dumps(self) -> str:
        """Canonical JSON: byte-identical for equal schedules."""
        doc = {
            "version": FORMAT_VERSION,
            "events": [e.as_dict() for e in self.events],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "FaultSchedule":
        doc = json.loads(text)
        if not isinstance(doc, dict) or "events" not in doc:
            raise ValueError("schedule JSON must be {version, events: [...]}")
        version = doc.get("version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported schedule version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        return cls(FaultEvent.from_dict(e) for e in doc["events"])

    def to_file(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_file(cls, path) -> "FaultSchedule":
        with open(path) as fh:
            return cls.loads(fh.read())

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule interleaving both event lists by time."""
        return FaultSchedule(list(self.events) + list(other.events))

    def restricted(self, planes: Iterable[int]) -> "FaultSchedule":
        """The sub-schedule touching only the given planes.

        Every fault event names exactly one plane, so a schedule
        partitions cleanly by plane ownership: the sharded engine
        routes each event to the worker that owns its plane, and the
        union of all shards' restrictions replays the full schedule.
        """
        keep = frozenset(planes)
        return FaultSchedule(e for e in self.events if e.plane in keep)
