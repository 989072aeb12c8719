"""Shared experiment machinery: network families and scale presets.

Section 5 of the paper compares four network types built from the same
equipment:

* **serial low-bandwidth** -- one plane at the base link rate (baseline);
* **parallel homogeneous** -- N identical planes;
* **parallel heterogeneous** -- N independently-instantiated planes
  (expander families only);
* **serial high-bandwidth** -- one plane at N x the base rate (ideal).

:class:`FatTreeFamily` and :class:`JellyfishFamily` build all four from
one parameter set so every experiment compares apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import current
from repro.core.pnet import PNet
from repro.topology.fattree import build_fat_tree
from repro.topology.graph import Topology
from repro.topology.jellyfish import build_jellyfish
from repro.topology.parallel import ParallelTopology, scale_capacity
from repro.units import DEFAULT_LINK_RATE

SERIAL_LOW = "serial-low"
PARALLEL_HOMOGENEOUS = "parallel-homogeneous"
PARALLEL_HETEROGENEOUS = "parallel-heterogeneous"
SERIAL_HIGH = "serial-high"


def get_scale(override: Optional[str] = None) -> str:
    """The experiment scale: ``override``, else the current config's."""
    return current(scale=override).scale


@dataclass
class NetworkSet:
    """The four comparison networks for one experiment configuration."""

    serial_low: PNet
    serial_high: PNet
    parallel_homogeneous: PNet
    parallel_heterogeneous: Optional[PNet] = None  # expanders only

    def items(self) -> List:
        """(label, PNet) pairs in the paper's plotting order."""
        out = [
            (SERIAL_LOW, self.serial_low),
            (PARALLEL_HOMOGENEOUS, self.parallel_homogeneous),
        ]
        if self.parallel_heterogeneous is not None:
            out.append((PARALLEL_HETEROGENEOUS, self.parallel_heterogeneous))
        out.append((SERIAL_HIGH, self.serial_high))
        return out


class FatTreeFamily:
    """Fat-tree-based networks (homogeneous parallelism only).

    Args:
        k: fat tree radix (hosts = k^3/4).
        link_rate: base link rate (the paper's 100G).
    """

    def __init__(self, k: int, link_rate: float = DEFAULT_LINK_RATE):
        self.k = k
        self.link_rate = link_rate

    @property
    def n_hosts(self) -> int:
        return self.k**3 // 4

    def base_plane(self, seed: int = 0) -> Topology:
        """One fat tree plane (seed is accepted for API symmetry)."""
        return build_fat_tree(self.k, link_rate=self.link_rate)

    def serial_low(self, seed: int = 0) -> PNet:
        return PNet.serial(self.base_plane(seed), name="serial-low-fattree")

    def serial_high(self, n_planes: int, seed: int = 0) -> PNet:
        topo = scale_capacity(self.base_plane(seed), n_planes)
        return PNet.serial(topo, name=f"serial-high-{n_planes}x-fattree")

    def parallel(self, n_planes: int, seed: int = 0) -> PNet:
        pnet = ParallelTopology.homogeneous(
            lambda: self.base_plane(seed), n_planes
        )
        return PNet(pnet, name=f"parallel-fattree-x{n_planes}")

    # Uniform name across families (see network_for_label).
    parallel_homogeneous = parallel

    def network_set(self, n_planes: int, seed: int = 0) -> NetworkSet:
        return NetworkSet(
            serial_low=self.serial_low(seed),
            serial_high=self.serial_high(n_planes, seed),
            parallel_homogeneous=self.parallel(n_planes, seed),
            parallel_heterogeneous=None,
        )


class JellyfishFamily:
    """Jellyfish-based networks, including the heterogeneous variant.

    Args:
        n_switches / net_degree / hosts_per_switch: Jellyfish parameters.
        link_rate: base link rate.
    """

    def __init__(
        self,
        n_switches: int,
        net_degree: int,
        hosts_per_switch: int,
        link_rate: float = DEFAULT_LINK_RATE,
    ):
        self.n_switches = n_switches
        self.net_degree = net_degree
        self.hosts_per_switch = hosts_per_switch
        self.link_rate = link_rate

    @property
    def n_hosts(self) -> int:
        return self.n_switches * self.hosts_per_switch

    def base_plane(self, seed: int) -> Topology:
        return build_jellyfish(
            self.n_switches,
            self.net_degree,
            self.hosts_per_switch,
            seed=seed,
            link_rate=self.link_rate,
        )

    def serial_low(self, seed: int = 0) -> PNet:
        return PNet.serial(self.base_plane(seed), name="serial-low-jellyfish")

    def serial_high(self, n_planes: int, seed: int = 0) -> PNet:
        topo = scale_capacity(self.base_plane(seed), n_planes)
        return PNet.serial(topo, name=f"serial-high-{n_planes}x-jellyfish")

    def parallel_homogeneous(self, n_planes: int, seed: int = 0) -> PNet:
        pnet = ParallelTopology.homogeneous(
            lambda: self.base_plane(seed), n_planes
        )
        return PNet(pnet, name=f"parallel-homogeneous-jellyfish-x{n_planes}")

    def parallel_heterogeneous(self, n_planes: int, seed: int = 0) -> PNet:
        pnet = ParallelTopology.heterogeneous(
            lambda s: self.base_plane(s), n_planes,
            seeds=[seed * 1000 + i for i in range(n_planes)],
        )
        return PNet(pnet, name=f"parallel-heterogeneous-jellyfish-x{n_planes}")

    def network_set(self, n_planes: int, seed: int = 0) -> NetworkSet:
        return NetworkSet(
            serial_low=self.serial_low(seed),
            serial_high=self.serial_high(n_planes, seed),
            parallel_homogeneous=self.parallel_homogeneous(n_planes, seed),
            parallel_heterogeneous=self.parallel_heterogeneous(n_planes, seed),
        )


def network_for_label(family, label: str, n_planes: int, seed: int = 0) -> PNet:
    """Build exactly one of the four comparison networks.

    Trial functions run in worker processes and only need the one network
    their trial measures; this avoids building the whole
    :class:`NetworkSet` per trial.  Families are plain objects with
    primitive attributes, so they pickle into :class:`TrialSpec` kwargs
    directly.
    """
    if label == SERIAL_LOW:
        return family.serial_low(seed)
    if label == SERIAL_HIGH:
        return family.serial_high(n_planes, seed)
    if label == PARALLEL_HOMOGENEOUS:
        return family.parallel_homogeneous(n_planes, seed)
    if label == PARALLEL_HETEROGENEOUS:
        builder = getattr(family, "parallel_heterogeneous", None)
        if builder is None:
            raise ValueError(
                f"{type(family).__name__} has no heterogeneous variant"
            )
        return builder(n_planes, seed)
    raise ValueError(f"unknown network label {label!r}")


def family_labels(family) -> Tuple[str, ...]:
    """The labels :meth:`network_set` would produce, in plotting order.

    Lets trial grids enumerate a family's networks without building any
    of them (fat trees have no heterogeneous variant).
    """
    labels = [SERIAL_LOW, PARALLEL_HOMOGENEOUS]
    if getattr(family, "parallel_heterogeneous", None) is not None:
        labels.append(PARALLEL_HETEROGENEOUS)
    labels.append(SERIAL_HIGH)
    return tuple(labels)


def format_table(headers: List[str], rows: List[List]) -> str:
    """Fixed-width text table for experiment output."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
