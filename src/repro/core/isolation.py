"""Strict performance isolation by pinning traffic classes to planes.

Paper section 7: "Because P-Net has multiple isolated dataplanes,
operators can assign different traffic classes to different dataplanes to
achieve performance isolation" -- user-facing frontend traffic on one
plane, background analytics on another, tenants on disjoint planes.
Since planes share no links, the isolation is absolute: no QoS, no
queues shared, no interference.

:class:`PlaneAllocator` owns the class->planes mapping and hands out
policies restricted to each class's planes.  Restriction works for any
policy here because these operate on a *view* PNet containing only the
allowed planes (path indices are translated back to the real plane ids).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from repro.core.path_selection import EcmpPolicy, PathSelectionPolicy
from repro.core.pnet import PlanePath, PNet


class RestrictedPolicy:
    """A policy whose selections are confined to a subset of planes."""

    def __init__(
        self,
        pnet: PNet,
        planes: Sequence[int],
        policy_cls: Type[PathSelectionPolicy],
        **policy_kwargs,
    ):
        if not planes:
            raise ValueError("need at least one allowed plane")
        for idx in planes:
            if not 0 <= idx < pnet.n_planes:
                raise IndexError(f"no plane {idx} in {pnet.name}")
        if len(set(planes)) != len(planes):
            raise ValueError("duplicate plane indices")
        self.real_planes = list(planes)
        self._view = PNet(
            [pnet.plane(i) for i in planes],
            name=f"{pnet.name}/view{list(planes)}",
        )
        self.policy = policy_cls(self._view, **policy_kwargs)

    def select(self, src: str, dst: str, flow_id: int = 0) -> List[PlanePath]:
        """Select paths, translating view plane ids to real ones."""
        return [
            (self.real_planes[view_idx], path)
            for view_idx, path in self.policy.select(src, dst, flow_id)
        ]


class PlaneAllocator:
    """Assign traffic classes to disjoint (or overlapping) plane subsets.

    Example::

        alloc = PlaneAllocator(pnet)
        alloc.assign("frontend", [0])          # user-facing: plane 0 only
        alloc.assign("analytics", [1, 2, 3])   # bulk: the rest
        policy = alloc.policy("analytics", KspMultipathPolicy, k=24)
    """

    def __init__(self, pnet: PNet):
        self.pnet = pnet
        self._classes: Dict[str, List[int]] = {}

    def assign(
        self,
        traffic_class: str,
        planes: Sequence[int],
        exclusive: bool = False,
    ) -> None:
        """Map a class onto planes.

        Args:
            exclusive: refuse the assignment if any plane is already held
                by another class (strict tenant isolation).
        """
        planes = list(planes)
        if not planes:
            raise ValueError("need at least one plane")
        for idx in planes:
            if not 0 <= idx < self.pnet.n_planes:
                raise IndexError(f"no plane {idx}")
        if exclusive:
            for other, held in self._classes.items():
                if other == traffic_class:
                    continue
                overlap = set(held) & set(planes)
                if overlap:
                    raise ValueError(
                        f"planes {sorted(overlap)} already assigned to "
                        f"{other!r}"
                    )
        self._classes[traffic_class] = planes

    def planes_of(self, traffic_class: str) -> List[int]:
        try:
            return list(self._classes[traffic_class])
        except KeyError:
            raise KeyError(f"unknown traffic class {traffic_class!r}") from None

    @property
    def classes(self) -> List[str]:
        return list(self._classes)

    def is_isolated(self, class_a: str, class_b: str) -> bool:
        """Whether two classes can never share a queue."""
        return not (
            set(self.planes_of(class_a)) & set(self.planes_of(class_b))
        )

    def policy(
        self,
        traffic_class: str,
        policy_cls: Type[PathSelectionPolicy] = EcmpPolicy,
        **policy_kwargs,
    ) -> RestrictedPolicy:
        """A path-selection policy confined to the class's planes."""
        return RestrictedPolicy(
            self.pnet,
            self.planes_of(traffic_class),
            policy_cls,
            **policy_kwargs,
        )
