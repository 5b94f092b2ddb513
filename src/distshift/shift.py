"""Distributional shift (DS) and relative distributional shift (RDS).

DS measures how strongly a distribution's mass is concentrated away from
the highest bin: 0 when everything sits in the right-most bin, 1 when
everything sits in the left-most. It is computed from the normalized sum
of exponentiated cumulative totals F_i, ``FrequencyDistribution.totals``,

    DS = (sum_i (F_i / n)**z - 1) / (k - 1)

with z = 1 (linear), a caller-chosen z, or the bin-dependent default
z = (k + 1) / k. z = 1 is computed exactly, any other z as a compensated
sum of rounded terms. RDS is the signed difference DS(F2) - DS(F1).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .distributions import FrequencyDistribution, ValidationError


@dataclass(frozen=True)
class ShiftValue:
    """A computed shift value together with the inputs that scale it."""

    ds: float
    z_used: float
    n: int
    k: int


def _frequencies(f1: FrequencyDistribution, f2: FrequencyDistribution, cumulative: bool):
    """Both sides' lists f_i/n, or F_i/n when ``cumulative``, once k is checked
    equal. Totals stay below 2**1023, so only an empty bin has frequency 0.0."""
    if f1.k != f2.k:
        raise ValidationError(f"bin counts differ (k={f1.k} vs k={f2.k})")
    n1, n2 = f1.n, f2.n
    a, b = (f1.totals, f2.totals) if cumulative else (f1.counts, f2.counts)
    return [x / n1 for x in a], [y / n2 for y in b]


def _ds_of(cum: list[float], z: float) -> float:
    """DS at a float exponent z != 1 from the cumulative frequencies F_i/n."""
    return (math.fsum([x**z for x in cum]) - 1.0) / (len(cum) - 1)


def _rds_of(cum1: list[float], cum2: list[float]) -> float:
    z = (len(cum1) + 1) / len(cum1)  # the default exponent, valid by construction
    return _ds_of(cum2, z) - _ds_of(cum1, z)


def ds_linear(f: FrequencyDistribution) -> ShiftValue:
    """Linear shift: (sum(F)/n - 1) / (k - 1), the exact case z = 1."""
    return ds_with_exponent(f, 1)


def ds_with_exponent(f: FrequencyDistribution, z) -> ShiftValue:
    """Shift with an explicit exponent z > 0, given as any real that fits a float.

    At z = 1 the value is (sum(F) - n) / (n * (k - 1)) in exact integers,
    correctly rounded. Any other z takes a compensated sum of the rounded
    terms (F_i/n)**z, which avoids overflow at large n. The [0, 1] range
    is guaranteed for z >= 1; z in (0, 1) is accepted for experimentation.
    """
    if isinstance(z, bool) or not isinstance(z, numbers.Real):
        raise ValidationError(f"exponent must be a real number, got {z!r}")
    try:
        z = float(z)
    except OverflowError:
        raise ValidationError("exponent does not fit a float") from None
    if not 0 < z < math.inf:
        raise ValidationError(f"exponent must be positive and finite, got {z}")
    n, k = f.n, f.k
    if z == 1:
        return ShiftValue(ds=(sum(f.totals) - n) / (n * (k - 1)), z_used=z, n=n, k=k)
    return ShiftValue(ds=_ds_of([t / n for t in f.totals], z), z_used=z, n=n, k=k)


def ds(f: FrequencyDistribution) -> ShiftValue:
    """Shift with the bin-dependent default exponent z = (k + 1) / k."""
    n, k = f.n, f.k
    z = (k + 1) / k
    return ShiftValue(ds=_ds_of([t / n for t in f.totals], z), z_used=z, n=n, k=k)


def rds(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Relative shift DS(F2) - DS(F1), each side using the default exponent.

    Positive values mean the first distribution is shifted right of the
    second. The two distributions may have different n but must share k.
    """
    return _rds_of(*_frequencies(f1, f2, True))
