"""Small statistics helpers shared by experiments and benchmarks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100) with linear interpolation.

    Matches numpy's default ("linear") method but works on plain lists
    without the array round trip.
    """
    if not values:
        raise ValueError("need at least one value")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0,100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1 - frac) + ordered[hi] * frac)


def left_sum(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.0.

    What ``sum`` computes for floats before Python 3.12.  From 3.12
    ``sum`` compensates rounding error, so a simulation that steers by
    ``sum`` would take a different trajectory on each interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Summary:
    """Median / mean / tail summary of a sample (Table 2's columns)."""

    count: int
    mean: float
    median: float
    p90: float
    p99: float
    minimum: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("need at least one value")
    return Summary(
        count=len(values),
        mean=sum(values) / len(values),
        median=percentile(values, 50),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
        minimum=min(values),
        maximum=max(values),
    )


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative_fraction) steps."""
    if not values:
        raise ValueError("need at least one value")
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


# --- confidence intervals (no scipy dependency) -----------------------

#: Acklam's rational approximation to the standard normal quantile;
#: relative error < 1.15e-9 over (0, 1).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (Acklam's approximation)."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                * q + c[5]) / ((((d[0] * q + d[1]) * q + d[2]) * q
                                + d[3]) * q + 1)
    if p > p_high:
        return -normal_quantile(1 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
            * r + a[5]) * q / (((((b[0] * r + b[1]) * r + b[2]) * r
                                 + b[3]) * r + b[4]) * r + 1)


def t_quantile(p: float, df: int) -> float:
    """Student-t quantile via the Cornish-Fisher expansion around the
    normal (Abramowitz & Stegun 26.7.5); accurate to ~1e-3 for df >= 3,
    exact in the df -> inf limit.
    """
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    x = normal_quantile(p)
    g1 = (x**3 + x) / 4
    g2 = (5 * x**5 + 16 * x**3 + 3 * x) / 96
    g3 = (3 * x**7 + 19 * x**5 + 17 * x**3 - 15 * x) / 384
    g4 = (79 * x**9 + 776 * x**7 + 1482 * x**5 - 1920 * x**3
          - 945 * x) / 92160
    return x + g1 / df + g2 / df**2 + g3 / df**3 + g4 / df**4


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with its two-sided confidence interval."""

    mean: float
    low: float
    high: float
    confidence: float
    count: int

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def half_width(self) -> float:
        return (self.high - self.low) / 2


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Student-t confidence interval for the mean of an i.i.d. sample."""
    if len(values) < 2:
        raise ValueError("need at least two values for an interval")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_quantile((1 + confidence) / 2, n - 1) * math.sqrt(var / n)
    return MeanCI(
        mean=mean, low=mean - half, high=mean + half,
        confidence=confidence, count=n,
    )


def batch_means_ci(
    values: Sequence[float],
    n_batches: int = 10,
    confidence: float = 0.95,
) -> MeanCI:
    """Batch-means interval for an *autocorrelated* series.

    Steady-state simulation outputs (per-flow FCTs, per-window loads)
    are correlated, so the i.i.d. interval of :func:`mean_ci` is too
    narrow; grouping the series into contiguous batches and treating
    the batch means as the sample is the standard remedy (trailing
    remainder values fold into the last batch).
    """
    if n_batches < 2:
        raise ValueError(f"need >= 2 batches, got {n_batches}")
    if len(values) < 2 * n_batches:
        raise ValueError(
            f"need >= {2 * n_batches} values for {n_batches} batches, "
            f"got {len(values)}"
        )
    size = len(values) // n_batches
    means = []
    for b in range(n_batches):
        lo = b * size
        hi = (b + 1) * size if b < n_batches - 1 else len(values)
        batch = values[lo:hi]
        means.append(sum(batch) / len(batch))
    return mean_ci(means, confidence=confidence)


def normalize(
    results: Dict[str, float], baseline_key: str
) -> Dict[str, float]:
    """Divide every entry by the baseline's value (paper-style plots).

    The paper normalises throughput against the serial low-bandwidth
    network and latency statistics against serial low-bandwidth too
    (Table 2 is expressed in percent of baseline).
    """
    try:
        base = results[baseline_key]
    except KeyError:
        raise KeyError(f"baseline {baseline_key!r} not in results") from None
    if base == 0:
        raise ZeroDivisionError("baseline value is zero")
    return {key: value / base for key, value in results.items()}
