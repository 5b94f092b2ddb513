"""Pairwise comparison measures for frequency distributions.

All measures operate on relative frequencies p_i = f_i/n and cumulative
probabilities P_i = F_i/n over a shared set of k bins, so distributions
with different n can be compared; the running totals F_i are read from
``FrequencyDistribution.totals``. Chi-square distance and KL divergence
are undefined (returned as None) when any pair of corresponding bins is
zero-valued; KL is also undefined when its second argument has a zero
bin where the first does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import FrequencyDistribution
from .shift import _require_equal_k, rds as _rds


def chi_square_distance(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float | None:
    """One half the sum of (p1-p2)^2/(p1+p2) over bins; None when any bin
    has f1_i = f2_i = 0."""
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    terms = []
    for a, b in zip(f1.counts, f2.counts):
        if a == 0 and b == 0:
            return None
        p, q = a / n1, b / n2
        terms.append((p - q) ** 2 / (p + q))
    return 0.5 * math.fsum(terms)


def ks_distance(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Maximum absolute difference between the cumulative probabilities."""
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    return max(abs(a / n1 - b / n2) for a, b in zip(f1.totals, f2.totals))


def kl_divergence(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float | None:
    """KL divergence sum(p1 * ln(p1/p2)), natural log.

    Bins with p1 = 0 contribute nothing. Returns None when the support of
    f1 is not contained in that of f2, or when any pair of corresponding
    bins is zero-valued.
    """
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    terms = []
    for a, b in zip(f1.counts, f2.counts):
        if a == 0 and b == 0:
            return None
        if a == 0:
            continue
        if b == 0:
            return None
        p, q = a / n1, b / n2
        terms.append(p * math.log(p / q))
    return math.fsum(terms)


def histogram_non_intersection(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """1 minus the summed bin-wise minima of the normalized histograms.

    Computed as the same quantity 0.5 * sum(|p1 - p2|), which is exactly 0
    for identical inputs and exactly symmetric; 1 - sum(min) is not.
    """
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    return 0.5 * math.fsum(abs(a / n1 - b / n2) for a, b in zip(f1.counts, f2.counts))


def emd(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Earth Mover's distance for ordered bins with unit spacing.

    Uses the 1-D closed form sum(|P1_i - P2_i|), which equals the
    minimum-cost transport between the normalized histograms under the
    ground distance d(i, j) = |i - j|.
    """
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    return math.fsum(abs(a / n1 - b / n2) for a, b in zip(f1.totals, f2.totals))


def rps(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Ranked Probability Score: sum of squared cumulative differences."""
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    return math.fsum((a / n1 - b / n2) ** 2 for a, b in zip(f1.totals, f2.totals))


#: Names of the seven series a report carries, in presentation order.
MEASURE_NAMES = (
    "abs_rds",
    "chi_square",
    "non_intersection",
    "kl_sqrt",
    "ks",
    "emd",
    "rps_sqrt",
)


@dataclass(frozen=True)
class MeasureReport:
    """All pairwise measure values for one (f1, f2) pair.

    ``kl_sqrt`` and ``rps_sqrt`` hold square roots, which is the form the
    correlation experiments consume. ``chi_square`` and ``kl_sqrt`` are
    None where the measure is undefined; that None is the only record of it.
    """

    rds: float
    abs_rds: float
    chi_square: float | None
    ks: float
    kl_sqrt: float | None
    non_intersection: float
    emd: float
    rps_sqrt: float


def _measure_columns(a, b):
    """The ``MEASURE_NAMES`` columns and signed RDS for rows of counts.

    ``a`` and ``b`` are (N, k) integer arrays whose row i is the pair
    (f1, f2) that ``compare_all`` would take. Returns an (N, 7) float
    array, NaN where chi-square or KL is undefined by the rules above,
    and the N signed RDS values. ``compare_all`` is its oracle.
    """
    import numpy as np  # only this batch path needs numpy

    k = a.shape[1]
    n1 = a.sum(axis=1, keepdims=True)
    n2 = b.sum(axis=1, keepdims=True)
    p, q = a / n1, b / n2
    cum_p, cum_q = np.cumsum(a, axis=1) / n1, np.cumsum(b, axis=1) / n2
    z = (k + 1) / k  # the default exponent of ``shift.ds``
    ds1 = (np.power(cum_p, z).sum(axis=1) - 1.0) / (k - 1)
    ds2 = (np.power(cum_q, z).sum(axis=1) - 1.0) / (k - 1)
    signed = ds2 - ds1
    diff = p - q
    with np.errstate(divide="ignore", invalid="ignore"):
        # a bin empty on both sides is 0/0, which makes its row NaN
        chi = 0.5 * (diff * diff / (p + q)).sum(axis=1)
        kl_terms = p * np.log(p / q)
    kl_terms[a == 0] = 0.0
    kl = kl_terms.sum(axis=1)
    kl[(b == 0).any(axis=1)] = np.nan  # a shared empty bin, or f1 outside f2's support
    cum_diff = np.abs(cum_p - cum_q)
    columns = {
        "abs_rds": np.abs(signed),
        "chi_square": chi,
        "non_intersection": 0.5 * np.abs(diff).sum(axis=1),
        "kl_sqrt": np.sqrt(np.maximum(kl, 0.0)),
        "ks": cum_diff.max(axis=1),
        "emd": cum_diff.sum(axis=1),
        "rps_sqrt": np.sqrt((cum_diff * cum_diff).sum(axis=1)),
    }
    return np.column_stack([columns[name] for name in MEASURE_NAMES]), signed


def compare_all(f1: FrequencyDistribution, f2: FrequencyDistribution) -> MeasureReport:
    """Compute RDS and all six comparison measures for one pair."""
    rds_value = _rds(f1, f2)  # refuses unequal k before any measure runs
    kl = kl_divergence(f1, f2)
    return MeasureReport(
        rds=rds_value,
        abs_rds=abs(rds_value),
        chi_square=chi_square_distance(f1, f2),
        ks=ks_distance(f1, f2),
        kl_sqrt=None if kl is None else math.sqrt(max(kl, 0.0)),
        non_intersection=histogram_non_intersection(f1, f2),
        emd=emd(f1, f2),
        rps_sqrt=math.sqrt(rps(f1, f2)),
    )
