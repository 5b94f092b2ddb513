import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distshift import (
    FrequencyDistribution,
    MEASURE_NAMES,
    ValidationError,
    chi_square_distance,
    compare_all,
    ds,
    emd,
    histogram_non_intersection,
    kl_divergence,
    ks_distance,
    rps,
    sample_uniform,
)
from distshift.measures import _measure_columns

from oracles import compositions, transport_emd


def fd(*counts):
    return FrequencyDistribution(tuple(counts))


def test_chi_square_hand_values():
    # 1/2 * ((1/3)^2/1 + 0 + (1/3)^2/(1/3)) = 2/9
    assert chi_square_distance(fd(2, 1, 0), fd(1, 1, 1)) == pytest.approx(2 / 9, abs=1e-15)
    assert chi_square_distance(fd(3, 1), fd(3, 1)) == 0.0


def test_chi_square_undefined_on_shared_zero_bin():
    assert chi_square_distance(fd(2, 0, 1), fd(1, 0, 2)) is None


def test_chi_square_matches_direct_formula_on_shape_pair():
    f1, f2 = fd(21, 2, 0, 2, 21), fd(1, 1, 42, 1, 1)
    p1, p2 = np.array(f1.counts) / f1.n, np.array(f2.counts) / f2.n
    expected = 0.5 * sum(
        (a - b) ** 2 / (a + b) for a, b in zip(p1, p2) if a + b > 0
    )
    assert chi_square_distance(f1, f2) == pytest.approx(expected, abs=1e-15)


def test_ks_hand_values():
    assert ks_distance(fd(2, 1, 0), fd(1, 1, 1)) == pytest.approx(1 / 3)
    assert ks_distance(fd(9, 0, 0), fd(0, 0, 9)) == 1.0
    assert ks_distance(fd(1, 2, 3), fd(1, 2, 3)) == 0.0


def test_kl_hand_values():
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert kl_divergence(fd(3, 1), fd(2, 2)) == pytest.approx(expected, abs=1e-15)
    assert kl_divergence(fd(2, 2), fd(2, 2)) == 0.0


def test_kl_undefined_cases():
    # support of f1 not contained in support of f2
    assert kl_divergence(fd(1, 1, 1), fd(2, 1, 0)) is None
    # shared zero bin is undefined in strict mode
    assert kl_divergence(fd(2, 0, 1), fd(1, 0, 2)) is None
    # a zero in f1 where f2 is positive contributes nothing
    value = kl_divergence(fd(0, 1, 2), fd(1, 1, 1))
    assert value is not None and value > 0


def test_kl_asymmetric_witness():
    a, b = fd(3, 1), fd(2, 2)
    assert kl_divergence(a, b) != kl_divergence(b, a)


def test_non_intersection_golden():
    assert histogram_non_intersection(fd(21, 2, 0, 2, 21), fd(1, 1, 42, 1, 1)) == pytest.approx(
        0.913, abs=1e-3
    )
    assert histogram_non_intersection(fd(5, 0, 0), fd(0, 0, 5)) == 1.0
    assert histogram_non_intersection(fd(1, 2, 3), fd(1, 2, 3)) == 0.0


def test_emd_hand_values():
    assert emd(fd(7, 0, 0), fd(0, 0, 7)) == 2.0
    assert emd(fd(2, 1, 0), fd(1, 1, 1)) == pytest.approx(2 / 3)
    assert emd(fd(4, 4), fd(4, 4)) == 0.0


def test_emd_equals_transport_oracle_on_small_pairs():
    members = [fd(*c) for c in compositions(4, 3)]
    for f1 in members:
        p1 = np.array(f1.counts) / f1.n
        for f2 in members:
            p2 = np.array(f2.counts) / f2.n
            closed_form = emd(f1, f2)
            assert closed_form == pytest.approx(transport_emd(p1, p2), abs=1e-9)


def test_rps_hand_values():
    assert rps(fd(2, 1, 0), fd(1, 1, 1)) == pytest.approx(2 / 9, abs=1e-15)
    assert rps(fd(6, 0, 0), fd(0, 0, 6)) == 2.0
    assert rps(fd(1, 1), fd(1, 1)) == 0.0


def test_unequal_n_is_supported():
    # same shapes at different scales compare as identical
    f1, f2 = fd(2, 4, 2), fd(1, 2, 1)
    assert ks_distance(f1, f2) == 0.0
    assert emd(f1, f2) == 0.0
    assert chi_square_distance(f1, f2) == 0.0


def test_measures_reject_unequal_k():
    with pytest.raises(ValidationError, match="bin counts differ"):
        chi_square_distance(fd(1, 1), fd(1, 1, 1))
    with pytest.raises(ValidationError):
        compare_all(fd(1, 1), fd(1, 1, 1))


def test_symmetry_and_identity_exhaustive_small_pairs():
    members = [fd(*c) for c in compositions(4, 3)]
    for f1 in members:
        for f2 in members:
            assert ks_distance(f1, f2) == ks_distance(f2, f1)
            assert emd(f1, f2) == emd(f2, f1)
            assert rps(f1, f2) == rps(f2, f1)
            assert histogram_non_intersection(f1, f2) == histogram_non_intersection(f2, f1)
            chi_ab = chi_square_distance(f1, f2)
            chi_ba = chi_square_distance(f2, f1)
            assert chi_ab == chi_ba
            kl = kl_divergence(f1, f2)
            values = [ks_distance(f1, f2), emd(f1, f2), rps(f1, f2),
                      histogram_non_intersection(f1, f2)]
            if chi_ab is not None:
                values.append(chi_ab)
            if kl is not None:
                assert kl >= -1e-12
                values.append(kl)
            if f1 == f2:
                assert all(v == 0 for v in values)
            else:
                assert all(v > 0 for v in values)
    # identical inputs whose bin-wise minima sum to 1 - 2**-53 in floating point
    for counts in [(3, 11, 80, 582, 218), (32, 10, 582, 139, 130),
                   (36, 2, 1, 118, 25, 3, 25, 2, 2)]:
        report = compare_all(fd(*counts), fd(*counts))
        assert all(getattr(report, name) == 0.0 for name in MEASURE_NAMES)


def test_triangle_inequality_for_ks_and_emd():
    rng = np.random.default_rng(17)
    for _ in range(300):
        F = [sample_uniform(20, 5, rng) for _ in range(3)]
        for d in (ks_distance, emd):
            ab, bc, ac = d(F[0], F[1]), d(F[1], F[2]), d(F[0], F[2])
            assert ac <= ab + bc + 1e-12


def test_compare_all_report_fields():
    # f1's zero bin faces 42 in f2, so no bin is zero in both and every
    # measure stays defined
    report = compare_all(fd(21, 2, 0, 2, 21), fd(1, 1, 42, 1, 1))
    assert report.abs_rds == abs(report.rds)
    assert abs(report.rds - 0.053) <= 2e-3
    assert report.non_intersection == pytest.approx(0.913, abs=1e-3)
    assert report.chi_square == pytest.approx(
        chi_square_distance(fd(21, 2, 0, 2, 21), fd(1, 1, 42, 1, 1)), abs=1e-15
    )
    assert report.ks == ks_distance(fd(21, 2, 0, 2, 21), fd(1, 1, 42, 1, 1))
    assert report.rps_sqrt >= 0


def test_compare_all_identical_and_disjoint():
    f = fd(2, 3, 1)
    same = compare_all(f, f)
    assert same.rds == same.ks == same.emd == same.non_intersection == 0.0
    assert same.chi_square == 0.0 and same.kl_sqrt == 0.0

    far = compare_all(fd(10, 0, 0), fd(0, 0, 10))
    assert far.rds == -1.0
    assert far.ks == 1.0
    assert far.emd == 2.0
    assert far.non_intersection == 1.0
    assert far.chi_square is None and far.kl_sqrt is None


def test_compare_all_sqrt_series():
    f1, f2 = fd(3, 2, 1), fd(1, 2, 3)
    report = compare_all(f1, f2)
    assert report.kl_sqrt == pytest.approx(math.sqrt(kl_divergence(f1, f2)), abs=1e-15)
    assert report.rps_sqrt == pytest.approx(
        math.sqrt(rps(f1, f2)), abs=1e-15
    )


def test_compare_all_shared_zero_bin_flags():
    report = compare_all(fd(2, 0, 1), fd(1, 0, 2))
    assert report.chi_square is None and report.kl_sqrt is None


def assert_row_matches_report(row, signed, f1, f2):
    """One kernel row against compare_all: the same NaN pattern, and every
    defined value within rtol 1e-12. RDS is a difference of two DS values,
    so its rounding error scales with them rather than with itself; there
    the tolerance is 1e-12 of the larger DS value."""
    report = compare_all(f1, f2)
    scale = max(ds(f1).ds, ds(f2).ds)
    assert abs(signed - report.rds) <= 1e-12 * scale
    for name, got in zip(MEASURE_NAMES, row.tolist()):
        want = getattr(report, name)
        if want is None:
            assert math.isnan(got), name
        elif name == "abs_rds":
            assert abs(got - want) <= 1e-12 * scale
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), name


@st.composite
def _member(draw, n, k, empty):
    """A member of A(n, k) whose bins in ``empty`` are 0 (one bin stays open)."""
    open_bins = [i for i in range(k) if i not in empty] or [draw(st.integers(0, k - 1))]
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=len(open_bins) - 1,
                                max_size=len(open_bins) - 1)))
    counts = [0] * k
    for i, lo, hi in zip(open_bins, [0] + cuts, cuts + [n]):
        counts[i] = hi - lo
    return counts


@st.composite
def _pair_batches(draw):
    """(k, rows of f1, rows of f2): each pair shares n, as experiment pairs
    do; bins are forced empty on one side, the other, or both, and some
    pairs are identical."""
    k = draw(st.integers(2, 10))
    bins = st.sets(st.integers(0, k - 1), max_size=k)
    a, b = [], []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(1, 300))
        both = draw(bins)
        first = draw(_member(n, k, both | draw(bins)))
        same = draw(st.booleans())
        a.append(first)
        b.append(first if same else draw(_member(n, k, both | draw(bins))))
    return k, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(batch=_pair_batches())
def test_measure_kernel_matches_compare_all(batch):
    k, a, b = batch
    rows, signed = _measure_columns(a, b)
    assert rows.shape == (len(a), len(MEASURE_NAMES)) and signed.shape == (len(a),)
    for i in range(len(a)):
        f1, f2 = FrequencyDistribution(a[i].tolist()), FrequencyDistribution(b[i].tolist())
        assert_row_matches_report(rows[i], signed[i], f1, f2)
        if f1 == f2:
            assert signed[i] == 0.0
            assert all(v == 0.0 for v in rows[i].tolist() if not math.isnan(v))
