"""The one flow-launch vocabulary shared by every engine.

:class:`FlowSpec` describes a flow independently of which engine runs it:
``PacketNetwork.add_flow``, ``FluidSimulator.add_flow`` and
``HybridSimulator.add_flow`` all take one (by position or as
``spec=``), so workloads, policies, and the ``repro.api`` facade can
hand the same object to any engine.

Construction is **keyword-only** (works down to Python 3.9, unlike
``dataclass(kw_only=True)``): a flow description has too many
same-typed fields for positional calls to stay readable.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

#: A path tagged with the dataplane it lives on (re-exported for
#: convenience; canonical home is :mod:`repro.core.pnet`).
PlanePath = Tuple[int, List[str]]


class FlowSpec:
    """One flow to launch: endpoints, size, subflow paths, scheduling.

    Args (keyword-only):
        src / dst: endpoint host names.
        size: bytes to transfer (>= 0).
        paths: subflow paths as ``(plane_idx, node_list)`` tuples; one
            path means single-path transport, several mean MPTCP (packet
            sim) / multi-subflow allocation (fluid sim).
        at: launch time in simulated seconds; ``None`` means "now"
            (time 0 for a not-yet-started packet sim).
        tag: free-form label copied onto the resulting flow record.
        transport: ``"tcp"`` or ``"dctcp"`` (packet simulator only; the
            fluid model has no transport knob and ignores it).
        on_complete: callback fired with the flow record at completion.
        fidelity: per-flow fidelity hint for the hybrid engine --
            ``"packet"`` or ``"fluid"`` forces that engine for this flow,
            bypassing the :class:`repro.hybrid.PromotionPolicy`;
            ``None`` (default) lets the policy decide.  Pure engines
            ignore the hint (the flow already runs at their fidelity).
    """

    __slots__ = ("src", "dst", "size", "paths", "at", "tag", "transport",
                 "on_complete", "fidelity")

    def __init__(
        self,
        *,
        src: str,
        dst: str,
        size: float,
        paths: Sequence[PlanePath],
        at: Optional[float] = None,
        tag: Optional[str] = None,
        transport: str = "tcp",
        on_complete: Optional[Callable[[Any], None]] = None,
        fidelity: Optional[str] = None,
    ):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if fidelity not in (None, "packet", "fluid"):
            raise ValueError(
                f"fidelity must be None, 'packet' or 'fluid', "
                f"got {fidelity!r}"
            )
        if not paths:
            raise ValueError("need at least one path")
        for plane_idx, path in paths:
            if path[0] != src or path[-1] != dst:
                raise ValueError(
                    f"path {path} does not connect {src}->{dst}"
                )
        self.src = src
        self.dst = dst
        self.size = size
        self.paths = list(paths)
        self.at = at
        self.tag = tag
        self.transport = transport
        self.on_complete = on_complete
        self.fidelity = fidelity

    @property
    def planes(self) -> Tuple[int, ...]:
        """The plane of each subflow path, in path order."""
        return tuple(plane for plane, __ in self.paths)

    def replace(self, **changes: Any) -> "FlowSpec":
        """A copy with the given fields replaced."""
        kwargs = {name: getattr(self, name) for name in self.__slots__}
        kwargs.update(changes)
        return FlowSpec(**kwargs)

    def relaunch(
        self, size: float, paths: Sequence[PlanePath], at: float
    ) -> "FlowSpec":
        """The spec of a moved flow's next leg: ``size`` bytes on
        ``paths`` from ``at`` (see ``PacketNetwork.resteer``).

        Endpoints, tag, transport and completion callback carry over;
        the paths are clamped to what the transport can drive.
        """
        return FlowSpec(
            src=self.src,
            dst=self.dst,
            size=size,
            paths=clamp_transport(self.transport, paths),
            at=at,
            tag=self.tag,
            transport=self.transport,
            on_complete=self.on_complete,
        )

    def __repr__(self) -> str:
        return (
            f"FlowSpec(src={self.src!r}, dst={self.dst!r}, "
            f"size={self.size!r}, paths={len(self.paths)} path(s), "
            f"at={self.at!r}, tag={self.tag!r}, "
            f"transport={self.transport!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, FlowSpec):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )


def clamp_transport(
    transport: str, paths: Sequence[PlanePath]
) -> List[PlanePath]:
    """Truncate a path set to what the transport can actually drive.

    DCTCP here is single-path: a relaunch onto several paths would
    silently upgrade it to MPTCP, so it keeps only the first.
    """
    paths = list(paths)
    if transport == "dctcp" and len(paths) > 1:
        return paths[:1]
    return paths


def same_paths(a: Sequence[PlanePath], b: Sequence[PlanePath]) -> bool:
    """Whether two selections name the same (plane, path) sets."""
    canon = lambda paths: sorted(  # noqa: E731
        (plane, tuple(p)) for plane, p in paths
    )
    return canon(a) == canon(b)


def check_flow_spec(spec: Any) -> None:
    """Reject anything but a :class:`FlowSpec` at an ``add_flow`` entry."""
    if not isinstance(spec, FlowSpec):
        raise TypeError(
            f"add_flow takes one FlowSpec, got {type(spec).__name__}: "
            "pass add_flow(FlowSpec(src=..., dst=..., size=..., "
            "paths=...))"
        )
