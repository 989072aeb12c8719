"""Max-min fair rate allocation by progressive filling.

Given directed link capacities and, per flow, the list of links it
crosses (plus an optional per-flow rate cap, used for the slow-start ramp
model), compute the max-min fair allocation: rates are raised together
until a link saturates; flows through saturated links freeze at their fair
share; repeat with the rest.

A flow capped below its fair share freezes at its cap instead, releasing
the unused share to others -- the standard cap extension.

Each filling round is a few numpy operations over incidence arrays: one
flow index and one link index per (flow, link) crossing, in flow order,
built once per call.  The rounds give the same floats, bit for bit, as
freezing one flow at a time (``tests/test_maxmin_differential.py`` keeps
that solver as the reference).  The rules that make them so:

* **Round structure.** A round takes the smallest share
  ``s = remaining / count`` over links that still carry an unfrozen
  flow, with ``eps = 1e-12 * max(largest capacity, 1)``.
  The cap test runs first: if any unfrozen flow has ``cap <= s + eps``,
  the round freezes exactly those flows, each at its cap.  Otherwise
  every unfrozen flow on a link whose share is ``<= s + eps`` freezes
  at ``s``.  A share is recomputed only for a link whose ``remaining``
  or ``count`` changed, with the same division.
* **Subtractions.** A round subtracts frozen rates only from links that
  keep an unfrozen flow; a link that goes idle is never read again.  A
  link crossed by several frozen flows (or twice by one) takes their
  rates one at a time, in flow order.  A result below zero becomes
  ``0.0`` -- the test is ``x < 0``, so ``-0.0`` stays ``-0.0``, which
  ``np.maximum(x, 0.0)`` would not keep.  Every subtracted rate is
  ``>= 0``, and a negative value minus one stays negative, so clamping
  once after a link's last subtraction gives the same float as clamping
  after each.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

import numpy as np


def max_min_rates(
    capacities: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    flow_caps: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Max-min fair rates for ``flow_links`` over ``capacities``.

    Args:
        capacities: per-directed-link capacity (bits/s).
        flow_links: per flow, the directed link indices it traverses.
            A flow with no links (e.g. src == dst at this abstraction)
            is only limited by its cap (or infinity).
        flow_caps: optional per-flow maximum rate (``math.inf`` for none).

    Returns:
        numpy array of per-flow rates.

    Raises:
        ValueError: a negative capacity or cap, or ``flow_caps`` of the
            wrong length.
        IndexError: a link index outside ``range(len(capacities))``.
    """
    n_links = len(capacities)
    n_flows = len(flow_links)
    caps_arr = np.asarray(capacities, dtype=float)
    if np.any(caps_arr < 0):
        raise ValueError("capacities must be >= 0")
    if flow_caps is None:
        flow_caps = np.full(n_flows, math.inf)
    elif len(flow_caps) != n_flows:
        raise ValueError("flow_caps length must match flow_links")
    else:
        flow_caps = np.asarray(flow_caps, dtype=float)
        if np.any(flow_caps < 0):
            raise ValueError("flow_caps must be >= 0")

    rates = np.zeros(n_flows)
    if n_flows == 0:
        return rates

    lengths = np.fromiter(map(len, flow_links), np.intp, n_flows)
    inc_link = np.fromiter(
        chain.from_iterable(flow_links), np.intp, int(lengths.sum())
    )
    inc_flow = np.repeat(np.arange(n_flows), lengths)
    if inc_link.size and (inc_link.min() < 0 or inc_link.max() >= n_links):
        raise IndexError("flow_links names a link outside the capacities")

    count = np.bincount(inc_link, minlength=n_links)
    remaining = caps_arr.copy()
    shares = np.where(count > 0, remaining / np.maximum(count, 1), np.inf)
    unfrozen = lengths > 0
    # Unconstrained by the network: frozen at the cap now.
    rates[~unfrozen] = flow_caps[~unfrozen]
    n_unfrozen = np.count_nonzero(unfrozen)

    scale = float(caps_arr.max()) if n_links else 1.0
    eps = 1e-12 * max(scale, 1.0)

    while n_unfrozen:
        s_link = float(shares.min())
        limit = s_link + eps
        freezing = flow_caps <= limit
        freezing &= unfrozen
        n_capped = np.count_nonzero(freezing)
        if n_capped:
            # Flows whose ramp cap binds before the fair share freeze at it.
            frozen = freezing.nonzero()[0]
            rates[frozen] = flow_caps[frozen]
        elif not math.isfinite(s_link):
            # No capacity constraint and no finite caps left.
            rates[unfrozen] = math.inf
            break
        else:
            # No cap binds, so ``freezing`` is all False here.
            freezing[inc_flow[(shares <= limit)[inc_link]]] = True
            freezing &= unfrozen
            frozen = freezing.nonzero()[0]
            assert frozen.size, (
                "progressive filling must freeze a flow per round"
            )
            rates[frozen] = s_link
        unfrozen[frozen] = False
        n_unfrozen -= frozen.size

        # The frozen flows leave their links: a link left idle gets share
        # inf; the others lose the frozen rates and get a new share.
        crossed = freezing[inc_flow]
        links = inc_link[crossed]
        np.subtract.at(count, links, 1)
        left = count[links]
        shares[links] = np.inf
        live = left.nonzero()[0]
        if not live.size:
            continue
        links = links[live]
        # ``subtract.at`` applies repeated indices one at a time, in order.
        if n_capped:
            np.subtract.at(
                remaining, links, flow_caps[inc_flow[crossed][live]]
            )
        else:
            np.subtract.at(remaining, links, s_link)
        after = remaining[links]
        after[after < 0] = 0.0
        remaining[links] = after
        shares[links] = after / left[live]

    return rates
