"""Component-count cost model reproducing Table 1 of the paper.

Table 1 compares three ways to build an 8,192-host full-bisection fabric
from 16-port switch chips:

==================  =====  ====  ======  ======  =======
Architecture        Tiers  Hops  Chips   Boxes   Links
==================  =====  ====  ======  ======  =======
Serial (scale-out)  4      7     3,584   3,584   24.6 k
Serial chassis      2      7     3,584   192     8.2 k
Parallel 8x         2      3     1,536   192     8.2 k
==================  =====  ====  ======  ======  =======

Conventions (reverse-engineered from the table and section 2/3 text):

* *Hops* is the worst-case number of switch **chips** a packet traverses
  between two hosts (chassis internal chips count).
* *Links* counts inter-switch links only (host links are identical in all
  three designs); for the parallel architecture, the per-plane links are
  coalesced into cable bundles (section 6.1) so the bundle count is quoted.
* A switch chip with radix ``k`` at speed ``s`` can equally be run as
  ``k * N`` ports at speed ``s / N`` (section 3.3); the parallel design
  exploits this to flatten each plane to two tiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.chassis import agg_chassis_spec, spine_chassis_spec


@dataclass(frozen=True)
class ComponentCount:
    """Component totals for one architecture at one scale."""

    architecture: str
    n_hosts: int
    tiers: int
    hops: int
    chips: int
    boxes: int
    links: int

    def as_row(self) -> tuple:
        return (
            self.architecture,
            self.tiers,
            self.hops,
            self.chips,
            self.boxes,
            self.links,
        )


def fat_tree_tiers(n_hosts: int, radix: int) -> int:
    """Minimum number of folded-Clos tiers of ``radix``-port switches.

    An L-tier folded Clos of radix-k switches supports ``2 * (k/2)^L``
    hosts at full bisection.
    """
    if radix < 4 or radix % 2:
        raise ValueError(f"radix must be even and >= 4, got {radix}")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    half = radix // 2
    tiers = 1
    capacity = 2 * half
    while capacity < n_hosts:
        tiers += 1
        capacity *= half
    return tiers


def _fat_tree_counts(n_hosts: int, radix: int) -> tuple:
    """(tiers, switches, inter_switch_links) for a folded Clos fabric.

    Tiers 1..L-1 each hold ``n_hosts / (radix/2)`` switches; the top tier
    holds ``n_hosts / radix``.  Each tier boundary carries ``n_hosts``
    links at full bisection.
    """
    tiers = fat_tree_tiers(n_hosts, radix)
    half = radix // 2
    if tiers == 1:
        return 1, _ceil_div(n_hosts, radix), 0
    lower = _ceil_div(n_hosts, half)
    top = _ceil_div(n_hosts, radix)
    switches = (tiers - 1) * lower + top
    links = (tiers - 1) * n_hosts
    return tiers, switches, links


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def count_serial_scale_out(n_hosts: int, chip_radix: int) -> ComponentCount:
    """Traditional scale-out fat tree: one chip per box (Table 1 row 1)."""
    tiers, switches, links = _fat_tree_counts(n_hosts, chip_radix)
    return ComponentCount(
        architecture="serial-scale-out",
        n_hosts=n_hosts,
        tiers=tiers,
        hops=2 * tiers - 1,
        chips=switches,
        boxes=switches,
        links=links,
    )


def count_serial_chassis(n_hosts: int, chip_radix: int) -> ComponentCount:
    """Chassis-based fat tree (Table 1 row 2).

    Two tiers of ``chip_radix^2/2``-port chassis: blocking 2-stage
    aggregation chassis below, non-blocking 3-stage spine chassis on top.
    """
    agg = agg_chassis_spec(chip_radix)
    spine = spine_chassis_spec(chip_radix)
    radix = spine.external_ports
    chassis_tiers, boxes_shape, links = _fat_tree_counts(n_hosts, radix)
    if chassis_tiers != 2:
        raise ValueError(
            f"chassis model assumes a 2-tier fabric; {n_hosts} hosts on "
            f"{radix}-port chassis needs {chassis_tiers} tiers"
        )
    n_agg = _ceil_div(n_hosts, radix // 2)
    n_spine = _ceil_div(n_hosts, radix)
    assert n_agg + n_spine == boxes_shape
    chips = n_agg * agg.chips + n_spine * spine.chips
    # Worst-case chip hops: up through an agg chassis, across a spine
    # chassis, down through another agg chassis.
    hops = 2 * agg.internal_hops + spine.internal_hops
    return ComponentCount(
        architecture="serial-chassis",
        n_hosts=n_hosts,
        tiers=chassis_tiers,
        hops=hops,
        chips=chips,
        boxes=n_agg + n_spine,
        links=links,
    )


def count_parallel(
    n_hosts: int, chip_radix: int, n_planes: int
) -> ComponentCount:
    """N-way parallel fat tree (Table 1 row 3).

    Each chip runs at its full breakout radix ``chip_radix * n_planes``
    (N low-speed channels per high-speed port), flattening each plane.
    Chips from all planes serving the same position are co-packaged into
    one box, and the N per-plane links between a pair of boxes ride one
    cable bundle (section 6.1), so boxes and links match a single plane.
    """
    if n_planes < 1:
        raise ValueError(f"n_planes must be >= 1, got {n_planes}")
    radix = chip_radix * n_planes
    tiers, per_plane_switches, per_plane_links = _fat_tree_counts(
        n_hosts, radix
    )
    return ComponentCount(
        architecture=f"parallel-{n_planes}x",
        n_hosts=n_hosts,
        tiers=tiers,
        hops=2 * tiers - 1,
        chips=n_planes * per_plane_switches,
        boxes=per_plane_switches,
        links=per_plane_links,
    )


def table1(
    n_hosts: int = 8192, chip_radix: int = 16, n_planes: int = 8
) -> list:
    """The three rows of Table 1 (defaults are the paper's exemplar)."""
    return [
        count_serial_scale_out(n_hosts, chip_radix),
        count_serial_chassis(n_hosts, chip_radix),
        count_parallel(n_hosts, chip_radix, n_planes),
    ]


def relative_power(counts: ComponentCount, watts_per_chip: float = 150.0,
                   watts_per_box_overhead: float = 50.0) -> float:
    """Rough fabric power estimate (chips + per-box ancillary overhead).

    Not part of Table 1, but supports the paper's qualitative claim that
    P-Nets lower power by removing chassis tiers and box overheads.
    """
    return counts.chips * watts_per_chip + counts.boxes * watts_per_box_overhead
