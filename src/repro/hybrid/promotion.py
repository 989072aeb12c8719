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

:func:`parse_policy` turns the CLI spelling (``--promote
"tagged:probe+sampled:0.05:7"``: promote if any ``+``-joined term says
so) into policy objects, and each policy's ``repr`` is the term that
builds it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

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


class AnyOf(PromotionPolicy):
    """Promote when any member policy does (terms joined with ``+``)."""

    def __init__(self, *policies: PromotionPolicy):
        self.policies = list(policies)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return any(p.decide(spec, index) for p in self.policies)

    def __repr__(self) -> str:
        return "+".join(repr(p) for p in self.policies)


class PromoteAll(PromotionPolicy):
    """Every flow at packet fidelity (the pure-packet limit)."""

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "all"


class PromoteNone(PromotionPolicy):
    """Every flow in the fluid bulk (the pure-fluid limit)."""

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return False

    def __repr__(self) -> str:
        return "none"


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
        if not self.tags:
            return "tagged"
        return "tagged:" + ",".join(sorted(self.tags))


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
        return f"sampled:{self.p!r}:{self.seed}"


class CrossingFaultedPlane(PromotionPolicy):
    """Promote flows with a subflow on any of the given planes.

    Flows crossing a plane that a fault schedule touches are exactly the
    ones whose retransmission/resteering dynamics the fluid model cannot
    capture.
    """

    def __init__(self, planes: Iterable[int]):
        self.planes: FrozenSet[int] = frozenset(int(p) for p in planes)

    def decide(self, spec: FlowSpec, index: int) -> bool:
        return any(plane in self.planes for plane in spec.planes)

    def __repr__(self) -> str:
        return "faulted:" + ",".join(str(p) for p in sorted(self.planes))


#: The terms :func:`parse_policy` reads, for its error messages.
_SPELLING = "all|none|tagged[:TAGS]|sampled:P[:SEED]|faulted:PLANES|P"
#: The named terms; any other term without a colon is a probability.
_NAMES = ("all", "none", "tagged", "sampled", "faulted")


def parse_policy(text: str) -> PromotionPolicy:
    """Parse the CLI promotion spelling into a policy.

    Terms, joined with ``+`` (promote if *any* term says so):

    * ``all`` / ``none``
    * ``tagged`` or ``tagged:a,b`` -- tagged flows (optionally by tag)
    * ``sampled:P`` or ``sampled:P:SEED`` -- Bernoulli(P) sample
    * a bare probability like ``0.1`` -- shorthand for ``sampled:0.1``
    * ``faulted:0,2`` -- flows crossing the listed planes

    Any other term, or a term with fields its name does not take, is a
    ``ValueError`` that names the term.
    """
    terms = [
        _parse_term(raw.strip()) for raw in str(text).split("+")
        if raw.strip()
    ]
    if not terms:
        raise ValueError(f"empty promotion spec {text!r}")
    return terms[0] if len(terms) == 1 else AnyOf(*terms)


def _parse_term(term: str) -> PromotionPolicy:
    name, colon, rest = term.partition(":")
    fields = rest.split(":") if colon else []
    if not colon and name not in _NAMES:
        name, fields = "sampled", [term]  # a bare probability
    try:
        if name in ("all", "none") and not fields:
            return PromoteAll() if name == "all" else PromoteNone()
        if name == "tagged":
            return Tagged(*[t for t in rest.split(",") if t])
        if name == "sampled" and 1 <= len(fields) <= 2:
            seed = int(fields[1]) if len(fields) == 2 else 0
            return Sampled(float(fields[0]), seed=seed)
        if name == "faulted" and fields:
            return CrossingFaultedPlane(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise ValueError(
            f"bad promotion term {term!r}: {exc} ({_SPELLING})"
        ) from None
    raise ValueError(f"bad promotion term {term!r} ({_SPELLING})")


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
