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


def _require_equal_k(f1: FrequencyDistribution, f2: FrequencyDistribution) -> None:
    if f1.k != f2.k:
        raise ValidationError(f"bin counts differ (k={f1.k} vs k={f2.k})")


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
    total = math.fsum((t / n) ** z for t in f.totals)
    return ShiftValue(ds=(total - 1.0) / (k - 1), z_used=z, n=n, k=k)


def ds(f: FrequencyDistribution) -> ShiftValue:
    """Shift with the bin-dependent default exponent z = (k + 1) / k."""
    return ds_with_exponent(f, (f.k + 1) / f.k)


def rds(f1: FrequencyDistribution, f2: FrequencyDistribution) -> float:
    """Relative shift DS(F2) - DS(F1), each side using the default exponent.

    Positive values mean the first distribution is shifted right of the
    second. The two distributions may have different n but must share k.
    """
    _require_equal_k(f1, f2)
    return ds(f2).ds - ds(f1).ds
