"""Distributional shift (DS) and relative distributional shift (RDS).

DS measures how strongly a distribution's mass is concentrated away from
the highest bin: 0 when everything sits in the right-most bin, 1 when
everything sits in the left-most. It is computed from the normalized sum
of exponentiated cumulative totals F_i, ``FrequencyDistribution.totals``,

    DS = (sum_i (F_i / n)**z - 1) / (k - 1)

with z = 1 (linear), a caller-chosen z, or the bin-dependent default
z = (k + 1) / k. RDS is the signed difference DS(F2) - DS(F1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import FrequencyDistribution, ValidationError


@dataclass(frozen=True)
class ShiftValue:
    """A computed shift value together with the inputs that scale it."""

    ds: float
    z_used: float
    n: int
    k: int


def ds_linear(f: FrequencyDistribution) -> ShiftValue:
    """Linear shift: (sum(F)/n - 1) / (k - 1), computed exactly in integers."""
    n, k = f.n, f.k
    value = (sum(f.totals) - n) / (n * (k - 1))
    return ShiftValue(ds=value, z_used=1.0, n=n, k=k)


def ds_with_exponent(f: FrequencyDistribution, z) -> ShiftValue:
    """Shift with an explicit exponent z > 0, given as any real that fits a float.

    The sum is accumulated as sum((F_i/n)**z) with compensated summation,
    which avoids overflow at large n and keeps the result exactly rounded.
    The [0, 1] range is guaranteed for z >= 1; values of z in (0, 1) are
    accepted for experimentation.
    """
    try:
        z = float(z)
    except OverflowError:
        raise ValidationError("exponent does not fit a float") from None
    if not 0 < z < math.inf:
        raise ValidationError(f"exponent must be positive and finite, got {z}")
    n, k = f.n, f.k
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
    if f1.k != f2.k:
        raise ValidationError(f"bin counts differ (k={f1.k} vs k={f2.k})")
    return ds(f2).ds - ds(f1).ds
