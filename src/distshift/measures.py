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
from dataclasses import dataclass, field

from .distributions import FrequencyDistribution, ValidationError
from .shift import rds as _rds


def _require_equal_k(a, b) -> None:
    if a.k != b.k:
        raise ValidationError(f"bin counts differ (k={a.k} vs k={b.k})")


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
    """1 minus the summed bin-wise minima of the normalized histograms."""
    _require_equal_k(f1, f2)
    n1, n2 = f1.n, f2.n
    return 1.0 - math.fsum(min(a / n1, b / n2) for a, b in zip(f1.counts, f2.counts))


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
    correlation experiments consume. A measure name appears in
    ``undefined_flags`` exactly when its value is None.
    """

    rds: float
    abs_rds: float
    chi_square: float | None
    ks: float
    kl_sqrt: float | None
    non_intersection: float
    emd: float
    rps_sqrt: float
    undefined_flags: frozenset[str] = field(default_factory=frozenset)

    def value(self, name: str) -> float | None:
        if name not in MEASURE_NAMES:
            raise ValueError(f"unknown measure {name!r}; expected one of {MEASURE_NAMES}")
        return getattr(self, name)


def compare_all(f1: FrequencyDistribution, f2: FrequencyDistribution) -> MeasureReport:
    """Compute RDS and all six comparison measures for one pair."""
    _require_equal_k(f1, f2)
    rds_value = _rds(f1, f2)
    chi = chi_square_distance(f1, f2)
    kl = kl_divergence(f1, f2)
    flags = set()
    if chi is None:
        flags.add("chi_square")
    if kl is None:
        flags.add("kl_sqrt")
    return MeasureReport(
        rds=rds_value,
        abs_rds=abs(rds_value),
        chi_square=chi,
        ks=ks_distance(f1, f2),
        kl_sqrt=None if kl is None else math.sqrt(max(kl, 0.0)),
        non_intersection=histogram_non_intersection(f1, f2),
        emd=emd(f1, f2),
        rps_sqrt=math.sqrt(rps(f1, f2)),
        undefined_flags=frozenset(flags),
    )
