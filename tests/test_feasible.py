import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from distshift import (
    CapExceededError,
    FrequencyDistribution,
    ValidationError,
    audit_uniqueness,
    audit_uniqueness_default,
    cardinality,
    enumerate_members,
    sample_uniform,
)
from distshift import feasible
from distshift.feasible import _forms_at, _grow_sums, _root_decompositions, _unrank_steps

from oracles import exact_sum_classes, floyd_uniform_members
from test_shift import A33_CUMULATIVE


def test_cardinality_golden():
    assert cardinality(3, 3) == 10
    assert cardinality(10, 5) == 1001
    assert cardinality(100, 5) == 4598126
    assert cardinality(1, 2) == 2


def test_cardinality_is_stars_and_bars():
    for n in range(1, 10):
        for k in range(2, 6):
            assert cardinality(n, k) == math.comb(n + k - 1, k - 1)


def test_cardinality_validates_inputs():
    with pytest.raises(ValidationError):
        cardinality(0, 3)
    with pytest.raises(ValidationError):
        cardinality(3, 1)


def test_integer_arguments_are_checked():
    # a count must be an integer (a bool is not one) of at least its bound
    for bad in (5.0, True, "5", None):
        with pytest.raises(ValidationError, match="n must be an integer"):
            cardinality(bad, 3)
        with pytest.raises(ValidationError, match="k must be an integer"):
            cardinality(5, bad)
        with pytest.raises(ValidationError, match="size must be an integer"):
            sample_uniform(5, 3, 1, size=bad)
    with pytest.raises(ValidationError, match="size must be at least 0"):
        sample_uniform(5, 3, 1, size=-1)
    with pytest.raises(ValidationError, match="max_collisions must be an integer"):
        audit_uniqueness(5, 3, 2, max_collisions=1.5)
    for bad in (10.5, True, "9", None):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            enumerate_members(3, 3, cap=bad)
        with pytest.raises(ValidationError, match="cap must be an integer"):
            audit_uniqueness(3, 3, 2, cap=bad)
    with pytest.raises(ValidationError, match="cap must be at least 0"):
        enumerate_members(3, 3, cap=-1)
    # numpy integers pass, and size=0 is an empty batch
    assert cardinality(np.int64(5), np.int32(3)) == 21
    assert sample_uniform(np.int64(5), 3, 1, size=np.int64(0)).shape == (0, 3)
    assert audit_uniqueness(5, 3, 2, max_collisions=np.int64(0)).collisions == ()
    assert len(list(enumerate_members(3, 3, cap=np.int64(10)))) == 10


def test_enumerate_a33_listing_verbatim():
    got = [f.totals for f in enumerate_members(3, 3)]
    assert got == A33_CUMULATIVE


def test_enumerate_smallest_set():
    got = [f.totals for f in enumerate_members(1, 2)]
    assert got == [(0, 1), (1, 1)]


def test_enumerate_count_order_and_validity():
    for n, k in [(8, 3), (5, 5), (15, 2), (6, 4)]:
        members = list(enumerate_members(n, k))
        assert len(members) == cardinality(n, k)
        forms = [f.totals for f in members]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        for f in members:
            assert f.n == n and f.k == k
            assert all(c >= 0 for c in f.counts)


def test_enumerate_refuses_oversized_sets_up_front():
    with pytest.raises(CapExceededError) as info:
        enumerate_members(100, 5, cap=1000)
    assert info.value.cardinality == 4598126
    assert info.value.cap == 1000
    assert "4598126" in str(info.value)


def test_sample_uniform_is_a_valid_member():
    f = FrequencyDistribution(sample_uniform(100, 5, seed=42, size=1)[0])
    assert f.n == 100 and f.k == 5


def test_sample_uniform_deterministic_per_seed():
    a = sample_uniform(12, 4, seed=99, size=5)
    b = sample_uniform(12, 4, seed=99, size=5)
    assert np.array_equal(a, b)
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    stream1 = sample_uniform(12, 4, rng1, size=20)
    stream2 = sample_uniform(12, 4, rng2, size=20)
    assert np.array_equal(stream1, stream2)
    assert len(set(map(tuple, stream1.tolist()))) > 1
    # a shared generator keeps advancing
    assert not np.array_equal(sample_uniform(12, 4, rng1, size=20), stream1)


@pytest.mark.parametrize("n, k", [(100, 2), (100, 5), (100, 8), (100, 20), (1, 2), (1, 5)])
@pytest.mark.parametrize("size", [0, 1, 8192])
def test_sample_uniform_matches_row_major_floyd(n, k, size):
    # the same draws as the row-major loop, from an int seed or a Generator
    assert np.array_equal(sample_uniform(n, k, 17, size), floyd_uniform_members(n, k, 17, size))
    got = sample_uniform(n, k, np.random.default_rng(17), size)
    assert np.array_equal(got, floyd_uniform_members(n, k, np.random.default_rng(17), size))
    assert got.shape == (size, k) and got.dtype == np.int64


def test_sample_uniform_covers_tiny_support():
    rng = np.random.default_rng(1)
    seen = set(map(tuple, sample_uniform(1, 2, rng, size=100).tolist()))
    assert seen == {(0, 1), (1, 0)}


def test_sample_uniform_goodness_of_fit_a_10_3():
    rng = np.random.default_rng(2024)
    draws = 20000
    counts = Counter(map(tuple, sample_uniform(10, 3, rng, size=draws).tolist()))
    size = cardinality(10, 3)
    assert len(counts) == size
    observed = np.array([counts[m.counts] for m in enumerate_members(10, 3)])
    result = stats.chisquare(observed)
    assert result.pvalue > 0.001


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), k=st.integers(2, 12), size=st.integers(0, 50),
       seed=st.integers(0, 2**64 - 1))
def test_sample_uniform_batch_rows_are_members(n, k, size, seed):
    rows = sample_uniform(n, k, seed, size=size)
    assert rows.shape == (size, k) and rows.dtype == np.int64
    assert (rows >= 0).all() and (rows.sum(axis=1) == n).all()


def test_audit_a33_z1_golden():
    report = audit_uniqueness(3, 3, 1)
    assert (report.unique_values, report.total) == (7, 10)
    assert report.collision_count == 3
    witnesses = {rec.members for rec in report.collisions}
    assert ((0, 2, 3), (1, 1, 3)) in witnesses
    values = sorted(rec.value for rec in report.collisions)
    assert values == pytest.approx([5 / 3, 2.0, 7 / 3])


def test_audit_54_z2_collision_witness():
    report = audit_uniqueness(5, 4, 2)
    assert (report.unique_values, report.total) == (45, 56)
    match = [rec for rec in report.collisions if ((0, 3, 3, 5), (1, 1, 4, 5)) == rec.members]
    assert len(match) == 1
    assert match[0].value == pytest.approx(1.72, abs=1e-12)


def test_audit_10_5_exponent_sweep():
    for z in range(1, 7):
        report = audit_uniqueness(10, 5, z)
        assert report.unique_values < 1001, f"z={z} unexpectedly unique"
    report = audit_uniqueness(10, 5, 7)
    assert report.unique_values == report.total == 1001
    assert report.fully_unique


def test_audit_z1_ties_mirror_integer_sums():
    for n, k in [(4, 4), (6, 3)]:
        report = audit_uniqueness(n, k, 1)
        sums = Counter(sum(f.totals) for f in enumerate_members(n, k))
        assert report.unique_values == len(sums)
        for rec in report.collisions:
            member_sums = {sum(m) for m in rec.members}
            assert len(member_sums) == 1


def test_audit_default_golden():
    for n, k, size in [(10, 5, 1001), (3, 3, 10), (30, 4, 5456)]:
        report = audit_uniqueness_default(n, k)
        assert report.total == size == cardinality(n, k)
        assert report.fully_unique
        assert report.z == Fraction(k + 1, k)


def test_audit_default_matches_explicit_fraction():
    a = audit_uniqueness_default(12, 6)
    b = audit_uniqueness(12, 6, Fraction(7, 6))
    assert a == b


def test_audit_float_is_its_exact_rational():
    # a float exponent is audited as the rational it is: 8/7 as a float
    # is p / 2**51, and its report is that of Fraction(8/7)
    report = audit_uniqueness(22, 7, 8 / 7)
    assert report == audit_uniqueness(22, 7, Fraction(8 / 7))
    assert report.fully_unique and report.collision_count == 0
    assert report.total == cardinality(22, 7)
    # the float 1.25 is exactly 5/4, which separates all of A(60, 5)
    assert audit_uniqueness(60, 5, 1.25).unique_values == 635376


@pytest.mark.parametrize(
    "z, unique, collisions",
    [(Fraction(1, 2), 549716, 45816), (Fraction(1, 3), 614868, 18009), (Fraction(1, 4), 629706, 5482)],
)
def test_audit_unit_fraction_exponents_at_60_5(z, unique, collisions):
    # tens of thousands of shared hashes, every one regrouped exactly
    report = audit_uniqueness(60, 5, z)
    assert (report.unique_values, report.collision_count) == (unique, collisions)
    assert report.total == 635376 and len(report.collisions) == 20


@pytest.mark.parametrize(
    "audit, fully_unique",
    [
        pytest.param(lambda: audit_uniqueness_default(60, 6), True, id="default-60-6"),
        pytest.param(lambda: audit_uniqueness(80, 5, 2), False, id="regrow-80-5-z2"),
    ],
)
def test_audit_memory_per_member(audit, fully_unique):
    # tracemalloc sees numpy buffers too: the uint64 sums, sorted in place,
    # and their repeat mask come to about 10 B per member, and so do the
    # sums regrown when a hash repeats. Fixed overheads add over 1 B per
    # member to the 0.6M of A(60, 5), so the audits measured are larger
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = audit()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.fully_unique == fully_unique
    assert peak <= 12 * report.total


@pytest.mark.parametrize(
    "audit, calls",
    [
        pytest.param(lambda: audit_uniqueness_default(30, 5), 1, id="default-30-5"),
        pytest.param(lambda: audit_uniqueness(10, 5, 2), 2, id="injective-10-5-z2"),
        pytest.param(lambda: audit_uniqueness(9, 5, Fraction(1, 2)), 2, id="regrouped-9-5-z1_2"),
    ],
)
def test_audit_regrows_only_when_a_hash_repeats(monkeypatch, audit, calls):
    # the hashes are sorted in place; only an audit with a shared hash,
    # injective (z = 2) or regrouped in full (z = 1/2), grows them again
    grown = []
    grow = feasible._grow_sums
    monkeypatch.setattr(feasible, "_grow_sums", lambda *args: grown.append(args) or grow(*args))
    report = audit()
    assert len(grown) == calls
    assert report.fully_unique == (calls == 1)


@pytest.mark.parametrize("n, k, z, collisions", [(9, 5, Fraction(1, 2), 139), (10, 5, 2, 240)])
def test_audit_records_are_a_prefix(n, k, z, collisions):
    # non-injective (every shared hash regrouped) and injective (only the
    # reported ones): fewer records are the first of the full list
    full = audit_uniqueness(n, k, z, max_collisions=20)
    assert full.collision_count == collisions and len(full.collisions) == 20
    for m in (0, 1, 3):
        report = audit_uniqueness(n, k, z, max_collisions=m)
        assert report.collisions == full.collisions[:m]
        assert (report.unique_values, report.collision_count) == (
            full.unique_values,
            full.collision_count,
        )


def test_audit_rejects_bad_exponents_and_oversize():
    with pytest.raises(ValidationError):
        audit_uniqueness(3, 3, 0)
    with pytest.raises(ValidationError):
        audit_uniqueness(3, 3, Fraction(-1, 2))
    for z in [float("inf"), float("-inf"), float("nan"), np.float64("inf")]:
        with pytest.raises(ValidationError):
            audit_uniqueness(10, 3, z)
    # a string or a bool is not read as a number
    for z in ["1.5", "3/2", True, np.bool_(True)]:
        with pytest.raises(ValidationError, match="exponent must be a real number"):
            audit_uniqueness(5, 3, z)
    # numpy numbers and Fractions are real numbers
    assert audit_uniqueness(5, 3, np.float64(1.5)) == audit_uniqueness(5, 3, Fraction(3, 2))
    assert audit_uniqueness(5, 3, np.int64(2)).z == 2
    with pytest.raises(CapExceededError):
        audit_uniqueness(100, 5, 2, cap=100000)


def test_audit_truncation_knobs():
    report = audit_uniqueness(10, 5, 1, max_collisions=3)
    assert report.collision_count > 3
    assert len(report.collisions) == 3
    assert feasible.WITNESSES_PER_VALUE == 4
    assert all(2 <= len(rec.members) == min(rec.count, 4) for rec in report.collisions)
    assert any(rec.count > 4 for rec in report.collisions)
    assert audit_uniqueness(10, 5, 1, max_collisions=0).collisions == ()
    with pytest.raises(ValidationError):
        audit_uniqueness(10, 5, 1, max_collisions=-1)


def test_root_decompositions_reconstruct_the_power():
    for p, q in [(3, 2), (4, 3), (11, 10), (5, 1)]:
        decomp = _root_decompositions(30, p, q)
        assert decomp[:2] == [(0, ()), (1, ())]
        for t in range(1, 31):
            u, radical = decomp[t]
            v = math.prod(prime**e for prime, e in radical)
            assert u**q * v == t**p
            # v is free of q-th powers: every prime exponent is below q
            assert all(0 < e < q for _, e in radical)


def test_audit_integer_valued_float_is_exact():
    # k * n**7 is above 2**62 here; the hash is still the exact sum
    report = audit_uniqueness(400, 3, 7.0)
    assert (report.unique_values, report.total) == (80601, 80601)
    assert report.collision_count == 0


def test_audit_fraction_with_huge_denominator():
    # Fraction(8/7) is p / 2**51; the radicals are keyed by prime
    # exponents, never built as integers
    z = Fraction(8 / 7)
    assert z.denominator == 2**51
    report = audit_uniqueness(6, 3, z)
    classes = exact_sum_classes(6, 3, z)
    assert (report.unique_values, report.total) == (len(classes), 28)


def test_audit_rejects_exponents_with_huge_coefficients():
    # 10**(10**9) would be built in full; the bit limit is checked first
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"limit of {feasible.MAX_COEFFICIENT_BITS} bits"):
        audit_uniqueness(10, 3, 10**9)
    for z in [Fraction(10**9 + 1, 2), 10**400]:
        with pytest.raises(ValidationError, match="too large for an exact audit"):
            audit_uniqueness(10, 3, z)
    assert time.perf_counter() - start < 1.0
    # the largest exact exponents in use stay inside the limit
    for n, z in [(10, Fraction(129, 2)), (60, Fraction(64)), (400, Fraction(7))]:
        assert len(_root_decompositions(n, z.numerator, z.denominator)) == n + 1


def test_exact_confirmation_splits_false_hash_merges(monkeypatch):
    # an all-zero hash table merges every member of A(3, 3); their exact
    # radical coefficients must split them back apart
    monkeypatch.setattr(
        feasible, "_hash_table", lambda decomp, n, z: np.zeros(n + 1, dtype=np.uint64)
    )
    report = audit_uniqueness(3, 3, Fraction(3, 2))
    assert (report.unique_values, report.total) == (10, 10)
    assert report.collision_count == 0 and report.collisions == ()
    # all 84 members of A(6, 4) are one candidate group at z = 1/2, which
    # the regroup must split into the oracle's exact classes
    z = Fraction(1, 2)
    classes = exact_sum_classes(6, 4, z)
    shared = [forms for forms in classes if len(forms) >= 2]
    report = audit_uniqueness(6, 4, z)
    assert (report.unique_values, report.collision_count) == (77, 7) == (len(classes), len(shared))
    assert sorted((rec.count, rec.members) for rec in report.collisions) == sorted(
        (len(forms), tuple(forms[:4])) for forms in shared
    )
    # the counts do not depend on how many records are kept
    bare = audit_uniqueness(6, 4, z, max_collisions=0)
    assert (bare.unique_values, bare.collision_count, bare.collisions) == (77, 7, ())


def test_hash_table_has_no_zero_term():
    # the coefficient is reduced modulo a prime before it is multiplied,
    # so a multiple of 2**64 no longer hashes to 0
    for n, z in [(60, Fraction(64)), (10, Fraction(129, 2))]:
        decomp = _root_decompositions(n, z.numerator, z.denominator)
        table = feasible._hash_table(decomp, n, z)
        assert table[0] == 0
        assert np.all(table[1:] != 0)


def test_forms_at_inverts_the_grow_order():
    for n, k in [(6, 4), (5, 3), (3, 5), (1, 2)]:
        forms = [f.totals for f in enumerate_members(n, k)]
        # colex rank of the free prefix: sum over i of C(a_i + i - 1, i)
        ranks = [sum(math.comb(a + i, i + 1) for i, a in enumerate(f[:-1])) for f in forms]
        assert sorted(ranks) == list(range(len(forms)))
        steps = _unrank_steps(n, k)
        for form, rank in zip(forms, ranks):
            assert _forms_at([rank], n, steps).tolist() == [list(form)]
        assert _forms_at(np.array(ranks), n, steps).tolist() == [list(f) for f in forms]
        # position r of the grown sums holds the prefix of rank r; base
        # k+1 weights make each sum name its prefix
        weights = np.array([(k + 1) ** a for a in range(n + 1)], dtype=np.int64)
        by_rank = dict(zip(ranks, forms))
        expected = [sum((k + 1) ** a for a in by_rank[r][:-1]) for r in range(len(forms))]
        assert _grow_sums(n, k, weights).tolist() == expected


EXPONENTS = st.one_of(
    st.integers(1, 24),  # k * n**z >= 2**64 from z=20 at n=9: the hash wraps
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)),
    st.builds(lambda p, e: p / 2**e, st.integers(1, 48), st.integers(0, 4)),  # dyadic floats
    st.floats(0.5, 3),  # p / 2**52 or so: every term has its own radical
)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 9), k=st.integers(2, 5), z=EXPONENTS)
# coefficients divisible by 2**64: t**64 and t**65 at every even t, and
# t**(129/2) = t**64 * sqrt(t)
@example(n=9, k=4, z=64)
@example(n=9, k=4, z=65)
@example(n=10, k=3, z=Fraction(129, 2))
@example(n=8, k=5, z=Fraction(129, 2))
# z = 1/q: 139 and 44 collisions, every shared hash regrouped exactly
@example(n=9, k=5, z=Fraction(1, 2))
@example(n=8, k=5, z=Fraction(1, 3))
def test_audit_matches_exact_oracle(n, k, z):
    classes = exact_sum_classes(n, k, z)
    shared = {forms[0]: forms for forms in classes if len(forms) >= 2}
    report = audit_uniqueness(n, k, z)
    assert report.unique_values == len(classes)
    assert report.collision_count == len(shared)
    assert len(report.collisions) == min(len(shared), 20)
    for rec in report.collisions:
        forms = shared[rec.members[0]]
        assert rec.count == len(forms)
        assert list(rec.members) == forms[:4]
