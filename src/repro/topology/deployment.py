"""Deployment optimisation model (paper section 6.1).

P-Nets multiply switch and cable counts; the paper argues modern plant
keeps that manageable:

* **cable bundles** -- the N per-plane links between the same pair of
  locations ride one multi-channel cable (e.g. 4x100G channels in one
  400G cable), so pulled-fiber count matches a serial network;
* **patch panels / optical circuit switches** -- aggregation-layer wiring
  terminates on panels; heterogeneity across planes is realised entirely
  in the panel's (or OCS's) internal mapping, "hiding" it from the
  datacenter floor (section 6.2);
* **optical switching** -- replacing packet-switch tiers with OCS ports
  eliminates the transceivers of the replaced electrical hops.

This module quantifies those claims for any P-Net: physical cables,
patch-panel ports, transceivers, and a derived wiring-complexity figure,
comparable across serial and parallel builds of the same fabric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.topology.graph import HOST, Topology
from repro.topology.parallel import ParallelTopology


@dataclass(frozen=True)
class DeploymentPlan:
    """Physical-plant totals for one fabric build.

    Attributes:
        physical_cables: distinct cables pulled (bundles count once).
        logical_links: individual links carried (channels).
        patch_panel_ports: panel ports when switch-switch cabling lands
            on patch panels (2 per physical cable).
        transceivers: optical modules, 2 per logical switch-switch link
            (host links assumed copper/DAC, as in the paper's exemplar).
        bundling_factor: logical links per physical cable (mean).
    """

    physical_cables: int
    logical_links: int
    patch_panel_ports: int
    transceivers: int

    @property
    def bundling_factor(self) -> float:
        if self.physical_cables == 0:
            return 0.0
        return self.logical_links / self.physical_cables


def _switch_links(plane: Topology) -> Sequence[Tuple[str, str]]:
    return [
        link.key
        for link in plane.links
        if plane.kind(link.u) != HOST and plane.kind(link.v) != HOST
    ]


def plan_serial(topo: Topology) -> DeploymentPlan:
    """Deployment of a single-plane (serial) network: one cable per link."""
    links = _switch_links(topo)
    return DeploymentPlan(
        physical_cables=len(links),
        logical_links=len(links),
        patch_panel_ports=2 * len(links),
        transceivers=2 * len(links),
    )


def plan_parallel(
    pnet: ParallelTopology,
    bundle: bool = True,
    optical_core: bool = False,
) -> DeploymentPlan:
    """Deployment of a P-Net.

    Args:
        pnet: the parallel topology.
        bundle: coalesce same-endpoint links across planes into one
            multi-channel cable (homogeneous P-Nets bundle perfectly; a
            heterogeneous P-Net bundles whatever pairs coincide, with the
            rest "hidden" at the patch panel per section 6.2 -- i.e. the
            bundle is between *locations*, so we bundle by switch-name
            pair, which all builders share across planes).
        optical_core: replace core-side transceivers with OCS ports
            (transceivers only at the ToR end of each logical link).
    """
    if bundle:
        # Bundle per (endpoint name pair): the N planes' t3--t7 links ride
        # one cable regardless of which planes they belong to.
        bundles: Dict[Tuple[str, str], int] = {}
        for plane in pnet.planes:
            for key in _switch_links(plane):
                bundles[key] = bundles.get(key, 0) + 1
        physical = len(bundles)
        logical = sum(bundles.values())
    else:
        logical = sum(len(_switch_links(p)) for p in pnet.planes)
        physical = logical

    per_link_transceivers = 1 if optical_core else 2
    return DeploymentPlan(
        physical_cables=physical,
        logical_links=logical,
        patch_panel_ports=2 * physical,
        transceivers=per_link_transceivers * logical,
    )


def deployment_comparison(
    pnet: ParallelTopology,
) -> Dict[str, DeploymentPlan]:
    """The section-6.1 comparison for one P-Net.

    Returns plans for: the serial high-bandwidth equivalent, the naive
    (unbundled) P-Net, the bundled P-Net, and the bundled P-Net with an
    optical core.
    """
    return {
        "serial-high": plan_serial(pnet.serial_equivalent()),
        "parallel-naive": plan_parallel(pnet, bundle=False),
        "parallel-bundled": plan_parallel(pnet, bundle=True),
        "parallel-bundled-ocs": plan_parallel(
            pnet, bundle=True, optical_core=True
        ),
    }
