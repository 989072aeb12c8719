"""Promotion policies: which flows deserve packet fidelity.

A :class:`PromotionPolicy` looks at each submitted
:class:`~repro.core.flowspec.FlowSpec` and decides whether the hybrid
engine should run it on the packet simulator (full TCP/MPTCP dynamics)
or leave it in the fluid bulk.  Policies are plain picklable objects so
hybrid checkpoints and ``PNET_JOBS`` worker processes reproduce the
same decisions; :class:`Sampled` draws from a named
:class:`~repro.ckpt.rng.RngBundle` stream keyed by the flow's
submission index, so decisions are independent of call order and
idempotent (re-deciding the same flow gives the same answer).

Policies compose with ``|`` (promote if either says so), ``&`` (both)
and ``~`` (invert)::

    policy = tagged("probe") | sampled(0.05, seed=7)

:func:`parse_policy` turns the CLI/env spelling (``--promote
"tagged:probe+sampled:0.05:7"``) into the same objects.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Set

from repro.ckpt.rng import RngBundle
from repro.core.flowspec import FlowSpec

#: The two fidelity levels a flow can run at.
PACKET = "packet"
FLUID = "fluid"


class PromotionPolicy:
    """Decides per flow whether it runs at packet fidelity.

    Subclasses implement :meth:`decide`; it must be **pure**: the same
    ``(spec, index)`` always yields the same answer, with no state
    carried between calls.  That is what makes hybrid trials
    deterministic across job counts and resumable from checkpoints.
    """

    def decide(self, spec: FlowSpec, index: int) -> bool:
        """True to promote flow number ``index`` to packet fidelity."""
        raise NotImplementedError

    def __or__(self, other: "PromotionPolicy") -> "PromotionPolicy":
        if not isinstance(other, PromotionPolicy):
            return NotImplemented
        return AnyOf(self, other)

    def __and__(self, other: "PromotionPolicy") -> "PromotionPolicy":
        if not isinstance(other, PromotionPolicy):
            return NotImplemented
        return AllOf(self, other)

    def __invert__(self) -> "PromotionPolicy":
        return Not(self)


class AnyOf(PromotionPolicy):
    """Promote when any member policy does (``a | b``)."""

    def __init__(self, *policies: PromotionPolicy):
        self.policies = list(policies)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return any(p.decide(spec, index) for p in self.policies)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(p) for p in self.policies) + ")"


class AllOf(PromotionPolicy):
    """Promote only when every member policy does (``a & b``)."""

    def __init__(self, *policies: PromotionPolicy):
        self.policies = list(policies)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return all(p.decide(spec, index) for p in self.policies)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(p) for p in self.policies) + ")"


class Not(PromotionPolicy):
    """Invert another policy (``~p``)."""

    def __init__(self, policy: PromotionPolicy):
        self.policy = policy

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return not self.policy.decide(spec, index)

    def __repr__(self) -> str:
        return f"~{self.policy!r}"


class PromoteAll(PromotionPolicy):
    """Every flow at packet fidelity (the pure-packet limit)."""

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "promote_all()"


class PromoteNone(PromotionPolicy):
    """Every flow in the fluid bulk (the pure-fluid limit)."""

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return False

    def __repr__(self) -> str:
        return "promote_none()"


class Tagged(PromotionPolicy):
    """Promote tagged flows -- optionally only specific tags.

    With no arguments, any flow whose ``spec.tag`` is set is promoted
    (the "mark your probes" workflow); with tags, only those tags are.
    """

    def __init__(self, *tags: str):
        self.tags: FrozenSet[str] = frozenset(tags)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        if spec.tag is None:
            return False
        return not self.tags or spec.tag in self.tags

    def __repr__(self) -> str:
        return f"tagged({', '.join(map(repr, sorted(self.tags)))})"


class Sampled(PromotionPolicy):
    """Promote a deterministic Bernoulli(p) sample of flows.

    Each decision draws the first value of the
    :class:`~repro.ckpt.rng.RngBundle` stream
    ``hybrid.promote.<index>`` under ``seed``.  Building the bundle per
    decision keeps :meth:`decide` pure -- no stream positions advance,
    so the answer for a flow depends only on ``(p, seed, index)``:
    identical across submission orders, worker processes, and
    checkpoint resumes.
    """

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        stream = RngBundle(self.seed).stream(f"hybrid.promote.{index}")
        return stream.random() < self.p

    def __repr__(self) -> str:
        return f"sampled({self.p!r}, seed={self.seed!r})"


class CrossingFaultedPlane(PromotionPolicy):
    """Promote flows with a subflow on any of the given planes.

    Flows crossing a plane that a fault schedule touches are exactly the
    ones whose retransmission/resteering dynamics the fluid model cannot
    capture; build from a :class:`repro.faults.FaultSchedule` with
    :meth:`from_schedule`.
    """

    def __init__(self, planes: Iterable[int] = ()):
        self.planes: FrozenSet[int] = frozenset(int(p) for p in planes)

    @classmethod
    def from_schedule(cls, schedule) -> "CrossingFaultedPlane":
        """Collect every plane the schedule's events touch."""
        planes: Set[int] = set()
        for event in schedule.events:
            plane = getattr(event, "plane", None)
            if plane is not None:
                planes.add(int(plane))
        return cls(planes)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return any(plane in self.planes for plane in spec.planes)

    def __repr__(self) -> str:
        return f"crossing_faulted_plane({sorted(self.planes)})"


# --- convenience constructors (the documented spelling) -----------------


def promote_all() -> PromotionPolicy:
    return PromoteAll()


def promote_none() -> PromotionPolicy:
    return PromoteNone()


def tagged(*tags: str) -> PromotionPolicy:
    return Tagged(*tags)


def sampled(p: float, seed: int = 0) -> PromotionPolicy:
    return Sampled(p, seed=seed)


def crossing_faulted_plane(
    planes: Iterable[int] = (), schedule=None
) -> PromotionPolicy:
    if schedule is not None:
        policy = CrossingFaultedPlane.from_schedule(schedule)
        return CrossingFaultedPlane(policy.planes | frozenset(planes))
    return CrossingFaultedPlane(planes)


def parse_policy(text: str) -> PromotionPolicy:
    """Parse the CLI/env promotion spelling into a policy.

    Terms, joined with ``+`` (promote if *any* term says so):

    * ``all`` / ``none``
    * ``tagged`` or ``tagged:a,b`` -- tagged flows (optionally by tag)
    * ``sampled:P`` or ``sampled:P:SEED`` -- Bernoulli(P) sample
    * a bare probability like ``0.1`` -- shorthand for ``sampled:0.1``
    * ``faulted:0,2`` -- flows crossing the listed planes
    """
    terms = []
    for raw in str(text).split("+"):
        term = raw.strip()
        if not term:
            continue
        name, _, rest = term.partition(":")
        if name == "all":
            terms.append(PromoteAll())
        elif name == "none":
            terms.append(PromoteNone())
        elif name == "tagged":
            tags = [t for t in rest.split(",") if t] if rest else []
            terms.append(Tagged(*tags))
        elif name == "sampled":
            parts = [p for p in rest.split(":") if p != ""]
            if not parts:
                raise ValueError(
                    f"sampled needs a probability: {term!r}"
                )
            p = float(parts[0])
            seed = int(parts[1]) if len(parts) > 1 else 0
            terms.append(Sampled(p, seed=seed))
        elif name == "faulted":
            if not rest:
                raise ValueError(f"faulted needs plane indices: {term!r}")
            terms.append(
                CrossingFaultedPlane(int(p) for p in rest.split(","))
            )
        else:
            try:
                p = float(term)
            except ValueError:
                raise ValueError(
                    f"unknown promotion term {term!r} (all|none|"
                    f"tagged[:tags]|sampled:p[:seed]|faulted:planes|"
                    f"probability)"
                ) from None
            terms.append(Sampled(p))
    if not terms:
        raise ValueError(f"empty promotion spec {text!r}")
    if len(terms) == 1:
        return terms[0]
    return AnyOf(*terms)


def resolve_policy(value) -> PromotionPolicy:
    """Normalise the ``promotion=`` argument to a policy object.

    Accepts ``None`` (promote none), a :class:`PromotionPolicy`, a
    probability in [0, 1] (``Sampled(p)``), or a :func:`parse_policy`
    string.
    """
    if value is None:
        return PromoteNone()
    if isinstance(value, PromotionPolicy):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Sampled(float(value))
    if isinstance(value, str):
        return parse_policy(value)
    raise TypeError(
        f"promotion must be a PromotionPolicy, probability, or policy "
        f"string, got {type(value).__name__}"
    )
