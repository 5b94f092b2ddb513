"""Pairwise comparison measures for frequency distributions.

All measures operate on relative frequencies p_i = f_i/n and cumulative
probabilities P_i = F_i/n over a shared set of k bins, so distributions
with different n can be compared; the running totals F_i are read from
``FrequencyDistribution.totals``. ``compare_all`` checks k and computes
one pair's p and P once, then derives RDS and every measure from them
through the same private function each public measure uses. Chi-square
distance and KL divergence are undefined (returned as None) when any
pair of corresponding bins is zero-valued; KL is also undefined when its
second argument has a zero bin where the first does not.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import FrequencyDistribution
from .shift import _frequencies, _rds_of


def _chi_square(p: list[float], q: list[float]) -> float | None:
    if 0.0 in map(operator.add, p, q):  # a bin empty on both sides
        return None
    return 0.5 * math.fsum([(x - y) ** 2 / (x + y) for x, y in zip(p, q)])


def _kl(p: list[float], q: list[float]) -> float | None:
    if 0.0 in q:  # a shared empty bin, or f1 outside f2's support
        return None
    return math.fsum([x * math.log(x / y) for x, y in zip(p, q) if x])


def _abs_diffs(p: list[float], q: list[float]) -> list[float]:
    return [abs(x - y) for x, y in zip(p, q)]


def _non_intersection(p: list[float], q: list[float]) -> float:
    return 0.5 * math.fsum(_abs_diffs(p, q))


def _rps(cum_diffs: list[float]) -> float:
    return math.fsum([d**2 for d in cum_diffs])


def chi_square_distance(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float | None:
    """One half the sum of (p1-p2)^2/(p1+p2) over bins; None when any bin
    has f1_i = f2_i = 0."""
    return _chi_square(*_frequencies(f1, f2, False))


def ks_distance(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Maximum absolute difference between the cumulative probabilities."""
    return max(_abs_diffs(*_frequencies(f1, f2, True)))


def kl_divergence(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float | None:
    """KL divergence sum(p1 * ln(p1/p2)), natural log.

    Bins with p1 = 0 contribute nothing. Returns None when the support of
    f1 is not contained in that of f2, or when any pair of corresponding
    bins is zero-valued.
    """
    return _kl(*_frequencies(f1, f2, False))


def histogram_non_intersection(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """1 minus the summed bin-wise minima of the normalized histograms.

    Computed as the same quantity 0.5 * sum(|p1 - p2|), which is exactly 0
    for identical inputs and exactly symmetric; 1 - sum(min) is not.
    """
    return _non_intersection(*_frequencies(f1, f2, False))


def emd(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Earth Mover's distance for ordered bins with unit spacing.

    Uses the 1-D closed form sum(|P1_i - P2_i|), which equals the
    minimum-cost transport between the normalized histograms under the
    ground distance d(i, j) = |i - j|.
    """
    return math.fsum(_abs_diffs(*_frequencies(f1, f2, True)))


def rps(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Ranked Probability Score: sum of squared cumulative differences."""
    return _rps(_abs_diffs(*_frequencies(f1, f2, True)))


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

    ``a`` and ``b`` are (N, k) integer arrays, in any memory order, whose
    row i is the pair (f1, f2) that ``compare_all`` would take. Returns a
    dict of seven length-N float arrays keyed by ``MEASURE_NAMES`` in that
    order, NaN where chi-square or KL is undefined by the rules above, and
    the N signed RDS values. ``compare_all`` is its oracle.

    The work runs column-major: each input is copied once into a
    C-contiguous (k, N) array, so bin i is one contiguous row of N values
    and every per-pair reduction runs over axis 0, one row at a time,
    whatever the memory order of the input. Below k = 8 those row-by-row
    sums round exactly as numpy's sums along a row of length k do; from
    k = 8 numpy sums a row pairwise, so values may differ from the
    row-major form in the last bits.
    """
    k = a.shape[1]
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    # exact integer running totals F_i, one row add per bin
    tot_a, tot_b = a.copy(), b.copy()
    for i in range(1, k):
        tot_a[i] += tot_a[i - 1]
        tot_b[i] += tot_b[i - 1]
    n1, n2 = tot_a[-1], tot_b[-1]
    p, q = a / n1, b / n2
    cum_p, cum_q = tot_a / n1, tot_b / n2
    z = (k + 1) / k  # the default exponent of ``shift.ds``
    ds1 = (np.power(cum_p, z).sum(axis=0) - 1.0) / (k - 1)
    ds2 = (np.power(cum_q, z).sum(axis=0) - 1.0) / (k - 1)
    signed = ds2 - ds1
    diff = p - q
    with np.errstate(divide="ignore", invalid="ignore"):
        # a bin empty on both sides is 0/0, which makes its pair NaN
        chi = 0.5 * (diff * diff / (p + q)).sum(axis=0)
        kl_terms = p * np.log(p / q)
    kl_terms[a == 0] = 0.0
    kl = kl_terms.sum(axis=0)
    kl[(b == 0).any(axis=0)] = np.nan  # a shared empty bin, or f1 outside f2's support
    cum_diff = np.abs(cum_p - cum_q)
    return {
        "abs_rds": np.abs(signed),
        "chi_square": chi,
        "non_intersection": 0.5 * np.abs(diff).sum(axis=0),
        "kl_sqrt": np.sqrt(np.maximum(kl, 0.0)),
        "ks": cum_diff.max(axis=0),
        "emd": cum_diff.sum(axis=0),
        "rps_sqrt": np.sqrt((cum_diff * cum_diff).sum(axis=0)),
    }, signed


def compare_all(f1: FrequencyDistribution, f2: FrequencyDistribution) -> MeasureReport:
    """Compute RDS and all six comparison measures for one pair."""
    cum1, cum2 = _frequencies(f1, f2, True)  # refuses unequal k before any measure runs
    p, q = _frequencies(f1, f2, False)
    rds_value = _rds_of(cum1, cum2)
    cum_diffs = _abs_diffs(cum1, cum2)
    kl = _kl(p, q)
    return MeasureReport(
        rds=rds_value,
        abs_rds=abs(rds_value),
        chi_square=_chi_square(p, q),
        ks=max(cum_diffs),
        kl_sqrt=None if kl is None else math.sqrt(max(kl, 0.0)),
        non_intersection=_non_intersection(p, q),
        emd=math.fsum(cum_diffs),
        rps_sqrt=math.sqrt(_rps(cum_diffs)),
    )
