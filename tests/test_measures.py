import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distshift import (
    FrequencyDistribution,
    MEASURE_NAMES,
    ValidationError,
    chi_square_distance,
    compare_all,
    ds,
    ds_with_exponent,
    emd,
    histogram_non_intersection,
    kl_divergence,
    ks_distance,
    rds,
    rps,
    sample_uniform,
)
from distshift import measures, shift
from distshift.measures import MeasureReport, _lookup_tables, _measure_columns

from oracles import assignment_emd, compositions, transport_emd


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
            linear_program = transport_emd(p1, p2)
            assert closed_form == pytest.approx(linear_program, abs=1e-9)
            # the two oracles agree where both apply (equal n)
            assert assignment_emd(f1.counts, f2.counts) == pytest.approx(linear_program, abs=1e-9)


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
    for rows in sample_uniform(20, 5, rng, size=900).reshape(300, 3, 5):
        F = [FrequencyDistribution(row) for row in rows]
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


def assert_row_matches_report(columns, i, signed, f1, f2):
    """Row i of the named kernel columns and of signed RDS against
    compare_all: the same NaN pattern, and every defined value within
    rtol 1e-12. RDS is a difference of two DS values, so its rounding
    error scales with them rather than with itself; there the tolerance
    is 1e-12 of the larger DS value."""
    report = compare_all(f1, f2)
    scale = max(ds(f1).ds, ds(f2).ds)
    assert abs(signed[i] - report.rds) <= 1e-12 * scale
    for name in MEASURE_NAMES:
        got, want = float(columns[name][i]), getattr(report, name)
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
    pairs are identical. The rows come C-contiguous, or as the even and
    odd rows of one interleaved C- or F-ordered batch, as the experiment
    engine passes them."""
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
    layout = draw(st.sampled_from(["contiguous", "C", "F"]))
    if layout == "contiguous":
        return k, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    members = np.array([row for pair in zip(a, b) for row in pair], dtype=np.int64, order=layout)
    return k, members[0::2], members[1::2]


@settings(max_examples=100, deadline=None)
@given(batch=_pair_batches())
def test_measure_kernel_matches_compare_all(batch):
    k, a, b = batch
    columns, signed = _measure_columns(a, b)
    assert tuple(columns) == MEASURE_NAMES and signed.shape == (len(a),)
    assert all(column.shape == (len(a),) for column in columns.values())
    # the memory order of the input does not change a bit of the output
    same_columns, same_signed = _measure_columns(np.ascontiguousarray(a), np.ascontiguousarray(b))
    assert np.array_equal(signed, same_signed)
    assert all(np.array_equal(columns[name], same_columns[name], equal_nan=True) for name in columns)
    for i in range(len(a)):
        f1, f2 = FrequencyDistribution(a[i].tolist()), FrequencyDistribution(b[i].tolist())
        assert_row_matches_report(columns, i, signed, f1, f2)
        if f1 == f2:
            assert signed[i] == 0.0
            assert all(column[i] == 0.0 for column in columns.values() if not math.isnan(column[i]))


@st.composite
def _shared_n_batches(draw):
    """(n, rows of f1, rows of f2, m): every row has the same n, as in an
    experiment; n = 1 and k = 2 are included, bins are forced empty on one
    side, the other, or both, and some pairs are identical. The first m
    pairs repeat to fill the batch, whose size is the fewest pairs N with
    (n + 1)**2 <= 2Nk, give or take one or two: so it sits exactly at the
    lookup domain's size rule when 2k divides (n + 1)**2, and just inside
    or just past it otherwise."""
    k = draw(st.integers(2, 8))
    n = draw(st.integers(1, 30))
    bins = st.sets(st.integers(0, k - 1), max_size=k)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        both = draw(bins)
        first = draw(_member(n, k, both | draw(bins)))
        pairs.append((first, first if draw(st.booleans()) else draw(_member(n, k, both | draw(bins)))))
    fewest = -(-(n + 1) ** 2 // (2 * k))
    size = max(1, fewest + draw(st.integers(-2, 1)))
    a, b = (np.array(side, dtype=np.int64) for side in zip(*(pairs * size)[:size]))
    return n, a, b, min(len(pairs), size)


def _batch(n, a, b):
    return n, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), len(a)


@settings(max_examples=100, deadline=None)
# n = 1, k = 2: 4 counts, exactly at the rule; bins empty on one side and on both
@example(batch=_batch(1, [[1, 0]], [[0, 1]]))
@example(batch=_batch(1, [[1, 0]], [[1, 0]]))
# 16 counts at n = 3 are exactly at the rule, 12 just past it
@example(batch=_batch(3, [[3, 0], [1, 2], [0, 3], [2, 1]], [[0, 3], [1, 2], [0, 3], [3, 0]]))
@example(batch=_batch(3, [[3, 0], [1, 2], [0, 3]], [[0, 3], [1, 2], [0, 3]]))
@given(batch=_shared_n_batches())
def test_lookup_domain_equals_the_arithmetic_domain(batch):
    n, a, b, distinct = batch
    k = a.shape[1]
    _lookup_tables.cache_clear()
    columns, signed = _measure_columns(a, b)
    lookup = (n + 1) ** 2 <= a.size + b.size
    # pair i as rows 2i and 2i + 1 of one F-ordered batch, as the experiment engine passes them
    members = np.asfortranarray(np.stack([a, b], axis=1).reshape(-1, k))
    interleaved = _measure_columns(members[0::2], members[1::2])
    # one more pair, of total n + 1, sends the same rows to the arithmetic domain
    odd = np.array([[n + 1] + [0] * (k - 1)], dtype=np.int64)
    arithmetic = _measure_columns(np.vstack([a, odd]), np.vstack([b, odd]))
    assert _lookup_tables.cache_info()[:2] == (lookup, lookup)  # hits, misses
    for other, rows in ((interleaved, slice(None)), (arithmetic, slice(-1))):
        assert signed.tobytes() == other[1][rows].tobytes()
        for name in MEASURE_NAMES:  # bit for bit, NaNs included
            assert columns[name].tobytes() == other[0][name][rows].tobytes(), name
    for i in range(distinct):  # the later rows repeat these
        assert_row_matches_report(columns, i, signed, FrequencyDistribution(a[i].tolist()),
                                  FrequencyDistribution(b[i].tolist()))


def _scalar_pairs():
    """2,000 seeded pairs: k from 2 to 12, unequal n, bins empty on one side
    or on both, some identical pairs, and totals next to 2**1023."""
    rng = random.Random(2019)
    pairs = []
    for _ in range(1990):
        k = rng.randint(2, 12)
        both = {i for i in range(k) if rng.random() < 0.1}
        sides = []
        for _ in range(2):
            counts = [0 if i in both or rng.random() < 0.15 else rng.randint(1, 300)
                      for i in range(k)]
            counts[rng.choice([i for i in range(k) if i not in both] or [0])] += 1
            sides.append(fd(*counts))
        pairs.append((sides[0], sides[0]) if rng.random() < 0.05 else tuple(sides))
    big = 2**1023
    for a, b in [((1, big - 2), (big - 2, 1)), ((1, big - 2), (1, 1)),
                 ((0, big - 1), (1, 0)), ((big - 3, 0, 2), (0, 1, big - 2)),
                 ((1, 0, 0, big - 2), (0, 0, 1, 3)), ((big // 2, 0, big // 2 - 1), (1, 0, 1)),
                 ((7, big - 8), (7, big - 8)), ((big - 2, 1), (2, 3)),
                 ((1, 1, big - 3, 0), (0, 1, 1, 1)), ((0, 0, big - 1), (big - 1, 0, 0))]:
        pairs.append((fd(*a), fd(*b)))
    return pairs


def test_scalar_outputs_are_byte_identical():
    """sha256 over the reprs of every scalar entry point on each pair:
    compare_all, ds, rds, DS at z = 1 and 2.5, and the six measures."""
    digest = hashlib.sha256()
    for f1, f2 in _scalar_pairs():
        values = [compare_all(f1, f2), rds(f1, f2)]
        for f in (f1, f2):
            values += [ds(f), ds_with_exponent(f, 1), ds_with_exponent(f, 2.5)]
        values += [measure(f1, f2) for measure in (chi_square_distance, ks_distance, kl_divergence,
                                                   histogram_non_intersection, emd, rps)]
        digest.update(repr(values).encode())
    assert digest.hexdigest() == "8890f325e10da555ff092f1ed3775cfb5d90c4d6da4dc5da23d88d280f2e9838"


@st.composite
def _scalar_pair(draw):
    """Two distributions sharing k in 2..12, each of its own n, some near
    2**1023, with bins empty on one side or on both."""
    k = draw(st.integers(2, 12))
    bins = st.sets(st.integers(0, k - 1), max_size=k)
    both = draw(bins)
    sides = []
    for _ in range(2):
        n = draw(st.one_of(st.integers(1, 300), st.integers(2**1022, 2**1023 - 1)))
        sides.append(fd(*draw(_member(n, k, both | draw(bins)))))
    return sides


@settings(max_examples=300, deadline=None)
@given(pair=_scalar_pair())
def test_compare_all_fields_are_the_public_functions(pair):
    # bit for bit: repr tells 0.0 from -0.0 and shows every digit
    f1, f2 = pair
    kl, value = kl_divergence(f1, f2), rds(f1, f2)
    expected = MeasureReport(
        rds=value,
        abs_rds=abs(value),
        chi_square=chi_square_distance(f1, f2),
        ks=ks_distance(f1, f2),
        kl_sqrt=None if kl is None else math.sqrt(max(kl, 0.0)),
        non_intersection=histogram_non_intersection(f1, f2),
        emd=emd(f1, f2),
        rps_sqrt=math.sqrt(rps(f1, f2)),
    )
    assert repr(compare_all(f1, f2)) == repr(expected)
    for f in pair:
        assert repr(ds(f)) == repr(ds_with_exponent(f, (f.k + 1) / f.k))


@pytest.mark.parametrize(
    "function",
    [compare_all, rds, chi_square_distance, ks_distance, kl_divergence,
     histogram_non_intersection, emd, rps],
)
def test_unequal_k_is_refused_before_any_measure(monkeypatch, function):
    def measured(*args):
        raise AssertionError("a measure ran")

    for name in ("_chi_square", "_kl", "_non_intersection", "_abs_diffs", "_rps", "_rds_of"):
        monkeypatch.setattr(measures, name, measured)
    monkeypatch.setattr(shift, "_rds_of", measured)
    with pytest.raises(ValidationError) as info:
        function(fd(1, 0, 2), fd(3, 4))
    assert str(info.value) == "bin counts differ (k=3 vs k=2)"
