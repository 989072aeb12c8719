"""Differential test: round-at-a-time max-min against flow-at-a-time.

:func:`repro.fluid.maxmin.max_min_rates` fills a round at a time on
numpy incidence arrays.  The reference below is the solver it replaced,
which froze one flow at a time and subtracted its rate link by link.
Both must return the same bytes (``tobytes()``, so ``-0.0`` and ``0.0``
differ) on seeded instances with zero, ``-0.0`` and infinite
capacities, links repeated in one path, flows with no links, shares and
caps tied with ``s + eps`` exactly or within ``eps``, binding,
non-binding and infinite caps and all-capped sets; and on every solve of
a slow-start fluid trial and of a hybrid trial.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

import numpy as np
import pytest

from repro import api
from repro.fluid import flowsim
from repro.fluid.maxmin import max_min_rates
from repro.obs import Registry

from tests.test_fluid_rate_reuse import arrival_pnet, arrival_specs

INF = math.inf


# --- the flow-at-a-time reference --------------------------------------------


def reference_max_min_rates(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    flow_caps: Optional[Sequence[float]] = None,
) -> np.ndarray:
    n_links = len(capacities)
    n_flows = len(flow_links)
    caps_arr = np.asarray(capacities, dtype=float)
    if np.any(caps_arr < 0):
        raise ValueError("capacities must be >= 0")
    if flow_caps is None:
        flow_caps = [math.inf] * n_flows
    elif len(flow_caps) != n_flows:
        raise ValueError("flow_caps length must match flow_links")

    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates

    remaining = caps_arr.copy()
    count = np.zeros(n_links, dtype=np.int64)
    link_flows: List[List[int]] = [[] for __ in range(n_links)]
    unfrozen = np.ones(n_flows, dtype=bool)

    for f_idx, links in enumerate(flow_links):
        for l_idx in links:
            count[l_idx] += 1
            link_flows[l_idx].append(f_idx)
        if not links:
            rates[f_idx] = flow_caps[f_idx]
            unfrozen[f_idx] = False

    scale = float(caps_arr.max()) if n_links else 1.0
    eps = 1e-12 * max(scale, 1.0)

    def freeze(f_idx: int, rate: float) -> None:
        rates[f_idx] = rate
        unfrozen[f_idx] = False
        for l_idx in flow_links[f_idx]:
            remaining[l_idx] -= rate
            if remaining[l_idx] < 0:
                remaining[l_idx] = 0.0
            count[l_idx] -= 1

    while unfrozen.any():
        active_links = count > 0
        if active_links.any():
            shares = np.where(
                active_links, remaining / np.maximum(count, 1), np.inf
            )
            s_link = float(shares.min())
        else:
            s_link = math.inf

        capped = [
            f_idx
            for f_idx in np.flatnonzero(unfrozen)
            if flow_caps[f_idx] <= s_link + eps
        ]
        if capped:
            for f_idx in capped:
                freeze(f_idx, float(flow_caps[f_idx]))
            continue

        if not math.isfinite(s_link):
            for f_idx in np.flatnonzero(unfrozen):
                rates[f_idx] = math.inf
                unfrozen[f_idx] = False
            break

        bottlenecks = np.flatnonzero(
            active_links & (shares <= s_link + eps)
        )
        froze_any = False
        for l_idx in bottlenecks:
            for f_idx in link_flows[l_idx]:
                if unfrozen[f_idx]:
                    freeze(f_idx, s_link)
                    froze_any = True
        assert froze_any, "progressive filling must freeze a flow per round"

    return rates


# --- seeded instances --------------------------------------------------------


def _paths(rng, n_links, n_flows, max_len=4, linkless=0.1, repeat=0.1):
    flows = []
    for __ in range(n_flows):
        if rng.random() < linkless:
            flows.append([])
            continue
        n_hops = rng.randint(1, min(max_len, n_links))
        links = rng.sample(range(n_links), n_hops)
        if rng.random() < repeat:
            links.insert(rng.randrange(len(links) + 1), rng.choice(links))
        flows.append(links)
    return flows


def general(rng):
    """Small values, signed zeros, rare infinities, all cap kinds."""
    n_links = rng.randint(0, 8)
    palette = [0.0, -0.0, 1.0, 2.0, 3.0, 10.0]
    capacities = [
        INF if rng.random() < 0.03
        else rng.choice(palette) if rng.random() < 0.5
        else rng.uniform(0.5, 20.0)
        for __ in range(n_links)
    ]
    n_flows = rng.randint(0, 12)
    flows = (
        _paths(rng, n_links, n_flows) if n_links else [[]] * n_flows
    )
    if rng.random() < 0.2:
        return capacities, flows, None
    caps = [
        rng.choice([
            INF, 0.0, -0.0, rng.uniform(0.01, 2.0), rng.uniform(5.0, 50.0),
        ])
        for __ in range(n_flows)
    ]
    return capacities, flows, caps


def ties(rng):
    """Shares and caps at exactly ``s + eps``, just inside and outside.

    An unused anchor link fixes ``eps``; the smallest share is ``a``,
    so the first round's limit is the float ``a + eps``.
    """
    anchor = rng.choice([1.0, 64.0, 1e4, 1e11])
    eps = 1e-12 * max(anchor, 1.0)
    a = rng.uniform(0.1, 0.9) * anchor
    near = [a, a + eps, a + eps / 2, a + 2 * eps,
            math.nextafter(a + eps, INF), math.nextafter(a + eps, -INF)]
    n_links = rng.randint(2, 7)
    n_flows = rng.randint(1, 10)
    flows = _paths(rng, n_links, n_flows, max_len=3, linkless=0.05)
    count = [sum(links.count(l) for links in flows) for l in range(n_links)]
    capacities = [
        rng.choice(near) * rng.choice([c, 1]) if c else rng.choice(near)
        for c in count
    ]
    capacities[rng.randrange(n_links)] = a
    capacities.append(anchor)
    caps = None
    if rng.random() < 0.7:
        caps = [rng.choice(near + [INF, INF, 3 * anchor]) for __ in flows]
    return capacities, flows, caps


def all_capped(rng):
    """Every cap binds: flows freeze at caps, several per link per round."""
    n_links = rng.randint(1, 6)
    capacities = [rng.uniform(10.0, 100.0) for __ in range(n_links)]
    n_flows = rng.randint(1, 12)
    flows = _paths(rng, n_links, n_flows, linkless=0.05)
    if rng.random() < 0.5:
        caps = [rng.uniform(0.1, 1.0) for __ in flows]
    else:
        caps = [
            rng.choice([0.25, 0.5, 1.0]) * rng.uniform(1, 3) for __ in flows
        ]
    return capacities, flows, caps


def ramp(rng):
    """Slow-start magnitudes: doubling caps, line rates, many sharers."""
    n_links = rng.randint(2, 12)
    capacities = [rng.choice([1e10, 4e10, 1e11]) for __ in range(n_links)]
    n_flows = rng.randint(2, 24)
    flows = _paths(rng, n_links, n_flows, max_len=5, linkless=0.0,
                   repeat=0.05)
    base = rng.uniform(1e9, 3e9)
    caps = [
        INF if rng.random() < 0.3 else base * 2 ** rng.randint(0, 6)
        for __ in flows
    ]
    return capacities, flows, caps


FAMILIES = {"general": general, "ties": ties, "all_capped": all_capped,
            "ramp": ramp}


def assert_same_bytes(capacities, flows, caps):
    expected = reference_max_min_rates(capacities, flows, caps)
    got = max_min_rates(capacities, flows, caps)
    assert got.tobytes() == expected.tobytes(), (capacities, flows, caps)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_instances(family):
    build = FAMILIES[family]
    for seed in range(600):
        rng = random.Random(f"{family}-{seed}")
        capacities, flows, caps = build(rng)
        assert_same_bytes(capacities, flows, caps)
        # Array inputs, as the fluid engine passes them.
        assert_same_bytes(
            np.asarray(capacities, dtype=float), flows,
            None if caps is None else np.asarray(caps, dtype=float),
        )


def test_negative_zero_survives_the_clamp():
    # Flow 0 freezes at its cap 0.0: link 0 keeps -0.0 - 0.0 = -0.0, and
    # flow 1 then freezes at that share.  np.maximum(x, 0.0) gives 0.0.
    rates = max_min_rates([-0.0, 10.0], [[0], [0, 1]], [0.0, INF])
    assert rates.tobytes() == np.array([0.0, -0.0]).tobytes()
    assert_same_bytes([-0.0, 10.0], [[0], [0, 1]], [0.0, INF])


def recorded_solves(monkeypatch, trial):
    """Every (capacities, paths, caps) the fluid engine solves in ``trial``."""
    seen = []
    real = flowsim.max_min_rates

    def recording(capacities, flow_links, flow_caps):
        seen.append((
            np.array(capacities), [list(l) for l in flow_links],
            list(flow_caps),
        ))
        return real(capacities, flow_links, flow_caps)

    monkeypatch.setattr(flowsim, "max_min_rates", recording)
    trial()
    return seen


@pytest.mark.parametrize("kind", ["fluid", "hybrid"])
def test_recorded_trial_solves(monkeypatch, kind):
    pnet = arrival_pnet()
    net = api.build_network(
        pnet.planes, kind=kind, obs=Registry(), slow_start=True
    )
    extra = {"promotion": "sampled:0.1:0"} if kind == "hybrid" else {}
    solves = recorded_solves(
        monkeypatch,
        lambda: api.run_trial(net, arrival_specs(pnet), control="off",
                              **extra),
    )
    assert len(solves) > 100
    assert any(c != INF for __, __, caps in solves for c in caps)
    for capacities, flows, caps in solves:
        assert_same_bytes(capacities, flows, caps)
