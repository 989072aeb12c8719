"""Benchmark: KSP route selection searches each switch pair once per plane.

Runs ``KspMultipathPolicy(k=8)`` -- the paper's MPTCP + K-shortest-paths
routing -- for every ordered pair of the first 16 hosts of the
packet-permutation fabric (32-switch degree-6 Jellyfish, 4 hosts per
switch, 4 heterogeneous planes, seed 0) and records in
``results/BENCH_routing.json``:

* ``pairs``: host pairs routed, and ``seconds``: their wall clock;
* ``ksp.enumerations``: Yen queries per (plane, host pair) -- the policy
  asks Yen only where a plane has fewer than K equal-cost paths;
* ``ksp.searches``: Yen runs actually made.

Paths between two hosts are their ToRs' paths with the host hops added,
and the planes' routing views memoise the ToR-pair search, so the
assertion is a count: one search per (plane, ToR pair) that Yen was
asked about, however many host pairs share it.  The 16 hosts sit on 4
ToRs, so most host pairs share a ToR pair with others.
"""

import time

from _util import emit_json

from repro.core.path_selection import KspMultipathPolicy
from repro.exp.common import JellyfishFamily
from repro.obs import Registry, use_registry

SWITCHES, DEGREE, HOSTS_PER, N_PLANES, SEED = 32, 6, 4, 4, 0
K = 8
HOSTS = 16


def test_routing_searches_once_per_switch_pair(benchmark):
    family = JellyfishFamily(SWITCHES, DEGREE, HOSTS_PER)
    pnet = family.parallel_heterogeneous(N_PLANES, seed=SEED)
    hosts = pnet.hosts[:HOSTS]
    pairs = [(src, dst) for src in hosts for dst in hosts if src != dst]
    policy = KspMultipathPolicy(pnet, k=K, seed=SEED)
    obs = Registry(enabled=True)

    def route():
        started = time.perf_counter()
        with use_registry(obs):
            routes = [
                policy.select(src, dst, flow_id)
                for flow_id, (src, dst) in enumerate(pairs)
            ]
        return routes, time.perf_counter() - started

    routes, seconds = benchmark.pedantic(route, rounds=1, iterations=1)
    assert all(routes)

    # The (plane, host pair)s the policy asked Yen about: those with at
    # least one but fewer than K equal-cost paths.  Hosts on one ToR
    # have one path and need no search.
    pool = policy.path_pool
    asked = [
        (plane, src, dst)
        for src, dst in pairs
        for plane in range(N_PLANES)
        if 0 < len(pnet.shortest_paths(plane, src, dst, pool)) < K
    ]
    tor = [pnet.plane(plane).tor_of for plane in range(N_PLANES)]
    rack_pairs = {
        (plane, tor[plane](src), tor[plane](dst))
        for plane, src, dst in asked
        if tor[plane](src) != tor[plane](dst)
    }
    enumerations = obs.value("ksp.enumerations")
    searches = obs.value("ksp.searches")
    emit_json("BENCH_routing", {
        "fabric": {
            "switches": SWITCHES, "degree": DEGREE,
            "hosts_per_switch": HOSTS_PER, "planes": N_PLANES, "seed": SEED,
        },
        "k": K,
        "pairs": len(pairs),
        "seconds": seconds,
        "ksp.enumerations": enumerations,
        "ksp.searches": searches,
        "rack_pairs_searched": len(rack_pairs),
    })
    assert enumerations == len(asked)
    # No switch pair is searched twice in one plane.
    assert searches == len(rack_pairs)
    assert searches < enumerations
