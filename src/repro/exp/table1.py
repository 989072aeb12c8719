"""Table 1: component counts of serial, chassis, and parallel fabrics."""

from __future__ import annotations

from typing import Dict, List

from repro.exp.common import format_table
from repro.topology.cost import ComponentCount, table1 as _cost_rows

#: The values printed in the paper (links rounded to 0.1k there).
PAPER_VALUES = {
    "serial-scale-out": dict(tiers=4, hops=7, chips=3584, boxes=3584, links=24576),
    "serial-chassis": dict(tiers=2, hops=7, chips=3584, boxes=192, links=8192),
    "parallel-8x": dict(tiers=2, hops=3, chips=1536, boxes=192, links=8192),
}


def run(n_hosts: int = 8192, chip_radix: int = 16, n_planes: int = 8) -> List[ComponentCount]:
    """Compute the three Table 1 rows (defaults = the paper's exemplar)."""
    return _cost_rows(n_hosts, chip_radix, n_planes)


def verify_against_paper() -> Dict[str, bool]:
    """Whether each computed row matches the published numbers exactly."""
    outcome = {}
    for row in run():
        expected = PAPER_VALUES[row.architecture]
        outcome[row.architecture] = all(
            getattr(row, key) == value for key, value in expected.items()
        )
    return outcome


def main() -> List[ComponentCount]:
    rows = run()
    print("Table 1: component counts (8192 hosts, 16-port chips)")
    print(
        format_table(
            ["Architecture", "Tiers", "Hops", "Chips", "Boxes", "Links"],
            [list(r.as_row()) for r in rows],
        )
    )
    matches = verify_against_paper()
    print(f"\nAll rows match the paper: {all(matches.values())}")
    return rows


if __name__ == "__main__":
    main()
