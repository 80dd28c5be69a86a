"""Ensemble summary statistics and the Wilcoxon signed-rank test.

Quantiles use linear interpolation between order statistics at position
``1 + (n - 1) q`` (numpy's default rule).  The rule is part of this
package's contract: quartiles, IQR and the total-variation figures quoted
in reports all depend on it.

The signed-rank test here is the paired test: weekly series are compared
week by week.  The differences are ``x - y`` computed in float64.  Zero
differences are dropped, tied absolute differences receive midranks, and
the statistic is ``W = min(W+, W-)``.  "Zero" and "tied" mean exactly
equal in float64, with no tolerance: integer-valued series such as weekly
counts give exact differences, while two differences that agree only up
to rounding are distinct and get distinct ranks (as in
``scipy.stats.wilcoxon``).  For up to
``EXACT_LIMIT`` effective pairs the two-sided p-value is exact, equal to
``min(1, 2 P(W+ <= W))`` under uniform random sign assignment; beyond that
a normal approximation with tie-corrected variance and a continuity
correction is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnsembleResult

#: Largest number of effective pairs for which the exact null
#: distribution is enumerated.
EXACT_LIMIT = 20

#: Significance level of the reported accept/reject decision.
ALPHA = 0.05


@dataclass(frozen=True, eq=False)
class WeeklySummary:
    """Per-week quartile summary of an ensemble.

    ``total_variation`` is the sum of the per-week inter-quartile ranges,
    the scalar spread measure used to rank experiments.
    """

    median: np.ndarray
    q1: np.ndarray
    q3: np.ndarray

    def __post_init__(self):
        for arr in (self.median, self.q1, self.q3):
            arr.setflags(write=False)
        if np.any(self.q1 > self.median) or np.any(self.median > self.q3):
            raise ValueError("quartiles must satisfy q1 <= median <= q3")

    @property
    def iqr(self) -> np.ndarray:
        return self.q3 - self.q1

    @property
    def total_variation(self) -> float:
        return float(self.iqr.sum())


@dataclass(frozen=True)
class WilcoxonResult:
    """Outcome of a paired signed-rank comparison."""

    n_effective: int
    w_statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value must be in [0, 1], got {self.p_value}")

    @property
    def reject_at_5pct(self) -> bool:
        return self.p_value < ALPHA


def weekly_summary(ensemble: EnsembleResult) -> WeeklySummary:
    """Quartiles, IQR and total variation across replicates, per week."""
    q1, med, q3 = np.quantile(ensemble.matrix, [0.25, 0.5, 0.75], axis=0, method="linear")
    return WeeklySummary(median=med, q1=q1, q3=q3)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their positions."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _exact_low_tail(doubled_ranks: np.ndarray, doubled_w: int) -> float:
    """P(W+ <= w) under random signs, by dynamic programming.

    Ranks are doubled so midranks become integers; the convolution then
    counts sign assignments by their doubled W+ sum.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for rank in doubled_ranks:
        rank = int(rank)
        shifted = np.zeros_like(counts)
        shifted[rank:] = counts[: total - rank + 1]
        counts += shifted
    return float(counts[: doubled_w + 1].sum() / counts.sum())


def _normal_approx_p(w: float, n: int, tie_sizes: np.ndarray) -> float:
    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0
    if tie_sizes.size:
        variance -= float((tie_sizes**3 - tie_sizes).sum()) / 48.0
    z = (w - mean + 0.5) / math.sqrt(variance)  # continuity correction
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))  # 2 * Phi(z)


def wilcoxon_signed_rank(x, y) -> WilcoxonResult:
    """Two-sided paired Wilcoxon signed-rank test of ``x`` against ``y``.

    Parameters
    ----------
    x, y : array-like
        Paired one-dimensional observations of equal length.

    Differences are ``x - y`` in float64.  A difference counts as zero,
    and two absolute differences as tied, only when exactly equal; no
    tolerance is applied, so ties lost to rounding before the call are
    not recovered.

    Returns
    -------
    WilcoxonResult
        Effective pair count after dropping zero differences, the
        statistic ``W = min(W+, W-)``, the two-sided p-value and the
        5%-level decision.  All differences being zero yields p = 1.

    Raises
    ------
    ValueError
        If the inputs differ in length or are empty.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or yv.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if xv.size != yv.size:
        raise ValueError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size == 0:
        raise ValueError("inputs must be non-empty")

    diffs = xv - yv
    diffs = diffs[diffs != 0.0]
    n = int(diffs.size)
    if n == 0:
        return WilcoxonResult(n_effective=0, w_statistic=0.0, p_value=1.0)

    ranks = _midranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)

    if n <= EXACT_LIMIT:
        doubled = np.round(ranks * 2.0).astype(np.int64)
        p = min(1.0, 2.0 * _exact_low_tail(doubled, int(round(2.0 * w))))
    else:
        _, tie_counts = np.unique(ranks, return_counts=True)
        p = _normal_approx_p(w, n, tie_counts[tie_counts > 1].astype(float))

    return WilcoxonResult(n_effective=n, w_statistic=w, p_value=p)
