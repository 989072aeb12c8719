"""Published datacenter flow-size distributions (paper section 5.3).

The paper replays flow sizes drawn from five published traces:

* **websearch** -- the web-search workload of DCTCP [6];
* **datamining** -- the data-mining workload of VL2 [22];
* **webserver**, **cache**, **hadoop** -- Facebook's production clusters
  as characterised by Roy et al. [35].

Like the paper's artifact ("we captured the CDF curves from figures in
these papers and saved them as CSV files"), we encode each distribution as
a piecewise curve of (flow size, cumulative probability) control points
digitised from the published figures, and sample by inverse transform with
log-linear interpolation between points.

Absolute fidelity to the original traces is limited by figure resolution;
what the experiments rely on -- and what these curves preserve -- is each
workload's *character*: websearch mixes mice with multi-MB flows,
datamining is extremely heavy-tailed (most flows under 2 kB, most bytes in
100 MB+ flows), and the Facebook workloads sit in between.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.units import GB, KB, MB


@dataclass(frozen=True)
class FlowSizeCDF:
    """A flow-size distribution given by CDF control points.

    Attributes:
        name: trace label.
        points: (size_bytes, cumulative_probability) pairs, strictly
            increasing in both coordinates, ending at probability 1.0.
    """

    name: str
    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("need at least two CDF points")
        prev_size, prev_p = self.points[0]
        if prev_p < 0:
            raise ValueError("probabilities must be >= 0")
        for size, p in self.points[1:]:
            if size <= prev_size or p < prev_p:
                raise ValueError(
                    f"{self.name}: CDF points must be increasing "
                    f"({prev_size},{prev_p}) -> ({size},{p})"
                )
            prev_size, prev_p = size, p
        if abs(self.points[-1][1] - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: CDF must end at 1.0")

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size (bytes) by inverse-transform sampling."""
        return self.quantile(rng.random())

    def sample_many(self, n: int, rng: random.Random) -> List[int]:
        return [self.quantile(rng.random()) for __ in range(n)]

    def quantile(self, p: float) -> int:
        """Flow size at cumulative probability ``p`` (log-interpolated)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0,1], got {p}")
        points = self.points
        if p <= points[0][1]:
            return int(round(points[0][0]))
        for (s0, p0), (s1, p1) in zip(points, points[1:]):
            if p <= p1:
                if p1 == p0:
                    return int(round(s1))
                frac = (p - p0) / (p1 - p0)
                log_size = math.log(s0) + frac * (math.log(s1) - math.log(s0))
                return max(1, int(round(math.exp(log_size))))
        return int(round(points[-1][0]))

    def mean(self, samples: int = 20001) -> float:
        """Numerical mean via quantile integration (deterministic)."""
        total = 0.0
        for i in range(samples):
            total += self.quantile((i + 0.5) / samples)
        return total / samples

    def cdf_at(self, size: float) -> float:
        """Cumulative probability at a given size (log-interpolated)."""
        points = self.points
        if size <= points[0][0]:
            return points[0][1]
        for (s0, p0), (s1, p1) in zip(points, points[1:]):
            if size <= s1:
                frac = (math.log(size) - math.log(s0)) / (
                    math.log(s1) - math.log(s0)
                )
                return p0 + frac * (p1 - p0)
        return 1.0


#: Web search (DCTCP [6], Fig. 4): query + background mix; flows from a
#: few kB to ~30 MB, ~30% of flows above 100 kB carrying most bytes.
WEBSEARCH = FlowSizeCDF(
    "websearch",
    (
        (6 * KB, 0.0),
        (10 * KB, 0.15),
        (13 * KB, 0.20),
        (19 * KB, 0.30),
        (33 * KB, 0.40),
        (53 * KB, 0.53),
        (133 * KB, 0.60),
        (667 * KB, 0.70),
        (1467 * KB, 0.80),
        (3333 * KB, 0.90),
        (6667 * KB, 0.97),
        (20 * MB, 0.999),
        (30 * MB, 1.0),
    ),
)

#: Data mining (VL2 [22], Fig. 2): extremely heavy-tailed; >50% of flows
#: under ~1 kB but most bytes in flows over 100 MB.
DATAMINING = FlowSizeCDF(
    "datamining",
    (
        (100, 0.0),
        (180, 0.10),
        (250, 0.20),
        (560, 0.30),
        (900, 0.40),
        (1100, 0.50),
        (2 * KB, 0.60),
        (10 * KB, 0.70),
        (100 * KB, 0.80),
        (1 * MB, 0.90),
        (10 * MB, 0.95),
        (100 * MB, 0.98),
        (1 * GB, 1.0),
    ),
)

#: Facebook web servers (Roy et al. [35]): dominated by small responses;
#: median around 2 kB, tail to ~10 MB.
WEBSERVER = FlowSizeCDF(
    "webserver",
    (
        (100, 0.0),
        (300, 0.10),
        (700, 0.25),
        (1300, 0.40),
        (2 * KB, 0.50),
        (5 * KB, 0.70),
        (20 * KB, 0.85),
        (100 * KB, 0.95),
        (1 * MB, 0.99),
        (10 * MB, 1.0),
    ),
)

#: Facebook cache followers [35]: mid-sized object transfers; median in
#: the tens of kB, tail to ~100 MB.
CACHE = FlowSizeCDF(
    "cache",
    (
        (1 * KB, 0.0),
        (2 * KB, 0.10),
        (5 * KB, 0.25),
        (20 * KB, 0.45),
        (70 * KB, 0.60),
        (300 * KB, 0.75),
        (1 * MB, 0.85),
        (5 * MB, 0.93),
        (30 * MB, 0.98),
        (100 * MB, 1.0),
    ),
)

#: Facebook Hadoop [35]: mostly small control/shuffle pieces with a
#: moderate tail; median ~1 kB, tail to ~100 MB.
HADOOP = FlowSizeCDF(
    "hadoop",
    (
        (150, 0.0),
        (300, 0.10),
        (600, 0.30),
        (1 * KB, 0.50),
        (3 * KB, 0.65),
        (10 * KB, 0.75),
        (100 * KB, 0.85),
        (1 * MB, 0.92),
        (10 * MB, 0.97),
        (100 * MB, 1.0),
    ),
)

#: All five published traces, keyed by name (Figure 13a / Appendix A).
TRACES = {
    cdf.name: cdf
    for cdf in (WEBSEARCH, DATAMINING, WEBSERVER, CACHE, HADOOP)
}
