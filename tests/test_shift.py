import math
from fractions import Fraction

import numpy as np
import pytest

from distshift import (
    FrequencyDistribution,
    ValidationError,
    ds,
    ds_linear,
    ds_with_exponent,
    enumerate_members,
    rds,
    sample_uniform,
)

from oracles import compositions, ds_fraction

# The ten members of A(3, 3) as cumulative forms, dictionary order.
A33_CUMULATIVE = [
    (0, 0, 3),
    (0, 1, 3),
    (0, 2, 3),
    (0, 3, 3),
    (1, 1, 3),
    (1, 2, 3),
    (1, 3, 3),
    (2, 2, 3),
    (2, 3, 3),
    (3, 3, 3),
]


def test_ds_linear_golden():
    assert ds_linear(FrequencyDistribution.from_totals((1, 2, 3))).ds == 0.5
    assert abs(ds_linear(FrequencyDistribution.from_totals((2, 3, 3))).ds - 5 / 6) <= 1e-12
    assert ds_linear(FrequencyDistribution.from_totals((0, 0, 3))).ds == 0.0
    assert ds_linear(FrequencyDistribution.from_totals((3, 3, 3))).ds == 1.0


def test_ds_linear_matches_exact_rationals_on_a33():
    for totals in A33_CUMULATIVE:
        expected = ds_fraction(totals, 1)
        got = ds_linear(FrequencyDistribution.from_totals(totals)).ds
        assert abs(got - float(expected)) <= 1e-15


def test_ds_squared_exponent_matches_exact_rationals_on_a33():
    # the z=2 sums run 9/9, 10/9, ..., 27/9; ds follows as (sum - 1)/2
    for totals in A33_CUMULATIVE:
        expected = ds_fraction(totals, 2)
        got = ds_with_exponent(FrequencyDistribution.from_totals(totals), 2).ds
        assert abs(got - float(expected)) <= 1e-12
    ten_ninths = ds_with_exponent(FrequencyDistribution.from_totals((0, 1, 3)), 2)
    assert abs(ten_ninths.ds - (Fraction(10, 9) - 1) / 2) <= 1e-12


def test_ds_cubed_exponent_golden_pair():
    # sums 179/125 and 191/125, hence ds values 0.144 and 0.176 exactly
    v3 = ds_with_exponent(FrequencyDistribution.from_totals((0, 3, 3, 5)), 3)
    v4 = ds_with_exponent(FrequencyDistribution.from_totals((1, 1, 4, 5)), 3)
    assert abs(v3.ds - 0.144) <= 1e-3
    assert abs(v4.ds - 0.176) <= 1e-3
    assert abs(v3.ds - float(ds_fraction((0, 3, 3, 5), 3))) <= 1e-12
    assert abs(v4.ds - float(ds_fraction((1, 1, 4, 5), 3))) <= 1e-12


def test_ds_squared_exponent_collision_pair():
    # both sums equal 43/25 = 1.72 exactly; in float the two values may
    # land an ulp apart, which is why the uniqueness audit works in
    # integer arithmetic for integer exponents
    v3 = ds_with_exponent(FrequencyDistribution.from_totals((0, 3, 3, 5)), 2)
    v4 = ds_with_exponent(FrequencyDistribution.from_totals((1, 1, 4, 5)), 2)
    assert abs(v3.ds - 0.24) <= 1e-12
    assert abs(v4.ds - 0.24) <= 1e-12
    assert ds_fraction((0, 3, 3, 5), 2) == ds_fraction((1, 1, 4, 5), 2) == Fraction(6, 25)


def test_ds_default_exponent_examples():
    one = ds(FrequencyDistribution.from_totals((10, 10, 10)))
    assert one.ds == 1.0
    assert one.z_used == (3 + 1) / 3
    assert ds(FrequencyDistribution.from_totals((0, 0, 10))).ds == 0.0

    f1 = FrequencyDistribution((21, 2, 0, 2, 21))
    f2 = FrequencyDistribution((1, 1, 42, 1, 1))
    v1, v2 = ds(f1), ds(f2)
    assert v1.z_used == 1.2
    assert (v1.n, v1.k) == (46, 5)
    assert abs(v1.ds - 0.435) <= 1e-3
    assert abs(v2.ds - 0.489) <= 1e-3
    assert v1.ds == pytest.approx(0.43547293970550593, abs=1e-15)
    assert v2.ds == pytest.approx(0.4888394330173046, abs=1e-15)


def test_ds_rejects_nonpositive_exponent():
    F = FrequencyDistribution.from_totals((1, 2, 3))
    # and exponents that are not finite or do not fit a float
    for z in (0, -1.5, math.inf, math.nan, Fraction("1e400"), 10**400):
        with pytest.raises(ValidationError, match="exponent"):
            ds_with_exponent(F, z)
    # and exponents that are not numbers at all
    for z in ("2", "3/2", True, np.bool_(True)):
        with pytest.raises(ValidationError, match="exponent must be a real number"):
            ds_with_exponent(F, z)
    # numpy numbers and Fractions are real numbers
    assert ds_with_exponent(F, np.float64(1.5)) == ds_with_exponent(F, Fraction(3, 2))


def test_ds_accepts_exponent_below_one():
    # outside the guaranteed [0, 1] band but accepted for exploration
    value = ds_with_exponent(FrequencyDistribution.from_totals((1, 2, 3)), 0.5)
    assert math.isfinite(value.ds)


def test_linear_consistency_with_exponent_one():
    rng = np.random.default_rng(3)
    for row in sample_uniform(30, 5, rng, size=200):
        f = FrequencyDistribution(row)
        a = ds_linear(f).ds
        b = ds_with_exponent(f, 1.0).ds
        assert a == b


def test_z_one_is_exact_on_every_small_member():
    # z = 1 however it is spelled, and ds_linear, give the correctly rounded
    # rational; a compensated sum of rounded terms misses it on (3, 1, 2)
    assert ds_linear(FrequencyDistribution((3, 1, 2))).ds == float(Fraction(7, 12))
    spellings = (1, 1.0, Fraction(1), np.float64(1.0))
    for k in (3, 5):
        for n in range(1, 16):
            for f in enumerate_members(n, k):
                exact = float(ds_fraction(f.totals, 1))
                assert ds_linear(f).ds == exact
                for z in spellings:
                    assert ds_with_exponent(f, z).ds == exact


def test_ds_bounds_extremes_small_sets():
    for n, k in [(8, 4), (6, 3), (5, 5)]:
        edge_right = (0,) * (k - 1) + (n,)
        edge_left = (n,) + (0,) * (k - 1)
        for counts in compositions(n, k):
            f = FrequencyDistribution(counts)
            for value in (ds_linear(f).ds, ds(f).ds, ds_with_exponent(f, 2).ds):
                assert 0.0 <= value <= 1.0
                if counts == edge_right:
                    assert value == 0.0
                elif counts == edge_left:
                    assert value == 1.0
                else:
                    assert 0.0 < value < 1.0


def test_ds_strictly_decreases_moving_mass_right():
    rng = np.random.default_rng(11)
    for row in sample_uniform(20, 6, rng, size=300):
        f = FrequencyDistribution(row)
        counts = list(f.counts)
        sources = [i for i, c in enumerate(counts) if c > 0 and i < len(counts) - 1]
        if not sources:
            continue
        i = int(rng.choice(sources))
        j = int(rng.integers(i + 1, len(counts)))
        moved = list(counts)
        moved[i] -= 1
        moved[j] += 1
        g = FrequencyDistribution(tuple(moved))
        assert ds(g).ds < ds(f).ds
        assert ds_linear(g).ds < ds_linear(f).ds


def test_ds_scale_invariance():
    rng = np.random.default_rng(5)
    for row in sample_uniform(14, 5, rng, size=50):
        f = FrequencyDistribution(row)
        base = ds(f).ds
        for c in (2, 10, 1000):
            scaled = FrequencyDistribution(tuple(x * c for x in f.counts))
            if base == 0.0:
                assert ds(scaled).ds == 0.0
            else:
                assert abs(ds(scaled).ds - base) <= 1e-12 * abs(base)


def test_rds_golden():
    assert rds(FrequencyDistribution((10, 0, 0)), FrequencyDistribution((0, 0, 10))) == -1.0
    f = FrequencyDistribution((4, 3, 2))
    assert rds(f, f) == 0.0
    f1 = FrequencyDistribution((21, 2, 0, 2, 21))
    f2 = FrequencyDistribution((1, 1, 42, 1, 1))
    assert abs(rds(f1, f2) - 0.053) <= 2e-3
    assert rds(f1, f2) == pytest.approx(0.05336649331179866, abs=1e-15)


def test_rds_antisymmetric_and_bounded():
    rng = np.random.default_rng(9)
    rows = sample_uniform(25, 4, rng, size=1000)
    for a, b in zip(rows[0::2], rows[1::2]):
        f1, f2 = FrequencyDistribution(a), FrequencyDistribution(b)
        forward = rds(f1, f2)
        assert rds(f2, f1) == -forward
        assert abs(forward) <= 1.0


def test_rds_allows_unequal_n():
    value = rds(FrequencyDistribution((1, 1, 1)), FrequencyDistribution((10, 10, 10)))
    assert math.isfinite(value)


def test_rds_rejects_unequal_k_without_override():
    f1 = FrequencyDistribution((1, 1, 1))
    f2 = FrequencyDistribution((1, 1, 1, 1))
    with pytest.raises(ValidationError, match="k=3 vs k=4"):
        rds(f1, f2)
