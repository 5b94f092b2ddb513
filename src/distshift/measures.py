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

import functools
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


def _bin_terms(p, q):
    """Each bin's chi-square term (p - q)**2 / (p + q), KL term p ln(p/q)
    and |p - q|. A chi-square term is NaN (0/0) where both sides are empty;
    a KL term is 0 where p = 0, then NaN where q = 0 (a shared empty bin,
    or p outside q's support)."""
    diff = p - q
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = diff * diff / (p + q)
        kl = np.where(p == 0, 0.0, p * np.log(p / q))
    return chi, np.where(q == 0, np.nan, kl), np.abs(diff)


@functools.lru_cache(maxsize=1)
def _lookup_tables(n: int, k: int):
    """The DS term (F/n)**((k+1)/k) at index F in 0..n, and the
    ``_bin_terms`` of (f1/n, f2/n) at flat index f1 * (n + 1) + f2."""
    x = np.arange(n + 1) / n
    tables = (np.power(x, (k + 1) / k), *(t.ravel() for t in _bin_terms(x[:, None], x)))
    for table in tables:
        table.flags.writeable = False  # the cache shares them
    return tables


def _measure_columns(a, b):
    """The ``MEASURE_NAMES`` columns and signed RDS for rows of counts.

    ``a`` and ``b`` are (N, k) integer arrays, in any memory order, whose
    row i is the pair (f1, f2) that ``compare_all`` would take. Returns a
    dict of seven length-N float arrays keyed by ``MEASURE_NAMES`` in that
    order, NaN where chi-square or KL is undefined by the rules above, and
    the N signed RDS values. ``compare_all`` is its oracle.

    The work runs column-major: the running totals and every per-bin term
    are C-contiguous (k, N) arrays, so bin i is one contiguous row of N
    values and every per-pair reduction runs over axis 0, one row at a
    time, whatever the memory order of the input. Below k = 8 those row-by-row
    sums round exactly as numpy's sums along a row of length k do; from
    k = 8 numpy sums a row pairwise, so values may differ from the
    row-major form in the last bits.

    When every row of both sides has the same total n, each term is read
    from ``_lookup_tables`` at the counts and running totals, which index
    the doubles the arithmetic would round, so both domains agree bit for
    bit. The lookup is taken only when (n + 1)**2 is at most the 2Nk
    counts of the call: no table then holds more entries than the inputs
    it serves, and a large n with few pairs builds none.
    """
    k = a.shape[1]
    # exact integer running totals F_i in C-contiguous (k, N) arrays, one row add per bin
    tot_a, tot_b = a.T.copy(), b.T.copy()
    for i in range(1, k):
        tot_a[i] += tot_a[i - 1]
        tot_b[i] += tot_b[i - 1]
    n1, n2 = tot_a[-1], tot_b[-1]
    n = int(n1.max(initial=0))
    # per-pair sums of the DS terms of each side and of the chi-square, KL
    # and |p - q| terms, and the (k, N) array of |P - Q|
    if (n + 1) ** 2 <= 2 * tot_a.size and (n1 == n).all() and (n2 == n).all():
        powers, *pair_tables = _lookup_tables(n, k)
        # each gathered (k, N) array is summed and freed before the next is
        # gathered: fewer live arrays take fewer fresh pages from the heap
        s1, s2 = (powers.take(tot).sum(axis=0) for tot in (tot_a, tot_b))
        cells = a.T * (n + 1) + b.T
        chi, kl, abs_diff = (table.take(cells).sum(axis=0) for table in pair_tables)
        tot_a *= n + 1  # the totals are done with: they become flat indices in place
        tot_a += tot_b
        cum_diff = pair_tables[2].take(tot_a)
    else:
        a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
        chi, kl, abs_diff = (term.sum(axis=0) for term in _bin_terms(a / n1, b / n2))
        cum_p, cum_q = tot_a / n1, tot_b / n2
        cum_diff = np.abs(cum_p - cum_q)
        z = (k + 1) / k  # the default exponent of ``shift.ds``
        s1, s2 = (np.power(cum, z).sum(axis=0) for cum in (cum_p, cum_q))
    signed = (s2 - 1.0) / (k - 1) - (s1 - 1.0) / (k - 1)
    ks, emd = cum_diff.max(axis=0), cum_diff.sum(axis=0)
    cum_diff *= cum_diff
    return {
        "abs_rds": np.abs(signed),
        "chi_square": 0.5 * chi,
        "non_intersection": 0.5 * abs_diff,
        "kl_sqrt": np.sqrt(np.maximum(kl, 0.0)),
        "ks": ks,
        "emd": emd,
        "rps_sqrt": np.sqrt(cum_diff.sum(axis=0)),
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
