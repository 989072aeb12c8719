"""Routing algorithms: shortest paths, ECMP sets, and K-shortest paths."""

from repro.routing.shortest import (
    all_shortest_paths,
    bfs_distances,
    shortest_path,
    shortest_path_length,
    switch_hops,
)
from repro.routing.ksp import k_shortest_paths
from repro.routing.ecmp import flow_hash

__all__ = [
    "all_shortest_paths",
    "bfs_distances",
    "shortest_path",
    "shortest_path_length",
    "switch_hops",
    "k_shortest_paths",
    "flow_hash",
]
