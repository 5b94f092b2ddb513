import hashlib
import math
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from distshift.feasible import (
    _classes_unique,
    _count_sums,
    _forms_at,
    _grow_sums,
    _members,
    _root_decompositions,
)

from oracles import exact_sum_classes, floyd_uniform_members
from test_shift import A33_CUMULATIVE


def _force_hash_engine(monkeypatch):
    """Audit rational exponents by the hash engine, the radical classes' oracle."""
    monkeypatch.setattr(feasible, "_class_audit", feasible._hash_audit)


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
    # tens of thousands of collisions, counted and recorded from the
    # radical classes
    report = audit_uniqueness(60, 5, z)
    assert (report.unique_values, report.collision_count) == (unique, collisions)
    assert report.total == 635376 and len(report.collisions) == 20


@pytest.mark.parametrize(
    "audit, fully_unique, bound",
    [
        pytest.param(lambda: audit_uniqueness_default(60, 6), True, 9.5, id="default-60-6"),
        pytest.param(lambda: audit_uniqueness(80, 5, 2), False, 0.5, id="table-80-5-z2"),
        pytest.param(lambda: audit_uniqueness(80, 5, 3), False, 12, id="regrow-80-5-z3"),
        pytest.param(lambda: audit_uniqueness(60, 5, 3), False, 12, id="regrow-60-5-z3"),
        pytest.param(lambda: audit_uniqueness(80, 5, Fraction(3, 2)), False, 12,
                     id="regroup-80-5-z3_2"),
    ],
)
def test_audit_memory_per_member(monkeypatch, audit, fully_unique, bound):
    # the hash engine, even where the radical classes alone decide the
    # audit (every rational exponent here).
    # tracemalloc sees numpy buffers too: the uint64 sums, sorted in place,
    # and their repeat mask, whose run starts are marked in place, come to
    # about 9 B per member, and so do the sums regrown when a hash repeats.
    # At z = 2, where 10 * 80**2 + 5 count entries are fewer than the 1.9M
    # members, no sum is grown to count them: the members per exact sum
    # are counted from the terms t**2 alone, in rows of j * 80**2 + 1
    # int64 for j < 5 (0.27 B per member), and only the colex prefix that
    # holds the 20 smallest shared sums is grown, to find their members;
    # at z = 3 the sums are sorted and regrown. The lookup's chunks of
    # 2**16 members add under 2 B per member even to the 0.6M of A(60, 5).
    # The sort of the 8.3M hashes of A(60, 6) is in place
    _force_hash_engine(monkeypatch)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = audit()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.fully_unique == fully_unique
    assert peak <= bound * report.total


@pytest.mark.parametrize(
    "audit, hashed, calls, whole, fully_unique",
    [
        pytest.param(lambda: audit_uniqueness_default(30, 5), False, 0, 0, True,
                     id="default-30-5"),
        pytest.param(lambda: audit_uniqueness_default(30, 5), True, 1, 1, True,
                     id="default-30-5-hashed"),
        pytest.param(lambda: audit_uniqueness(10, 5, 2), False, 2, 1, False,
                     id="injective-10-5-z2"),
        pytest.param(lambda: audit_uniqueness(9, 5, Fraction(1, 2)), False, 0, 0, False,
                     id="regrouped-9-5-z1_2"),
        pytest.param(lambda: audit_uniqueness(9, 5, Fraction(1, 2)), True, 2, 2, False,
                     id="regrouped-9-5-z1_2-hashed"),
        pytest.param(lambda: audit_uniqueness(30, 5, 2), False, 1, 0, False, id="table-30-5-z2"),
        pytest.param(lambda: audit_uniqueness(80, 5, 2), False, 1, 0, False, id="table-80-5-z2"),
    ],
)
def test_audit_regrows_only_when_a_hash_repeats(
    monkeypatch, audit, hashed, calls, whole, fully_unique
):
    # the radical classes decide every rational exponent, the default
    # one of A(30, 5) and the colliding z = 1/2 of A(9, 5), with no hash
    # grown; forced onto the hash engine, they grow them once, or twice.
    # The hashes are sorted in place; only an audit with a shared hash,
    # injective (z = 2) or regrouped in full (z = 1/2), grows them again,
    # and an injective one only up to a top below n. Where the count rows
    # have no more entries than there are members, the members are counted
    # per exact sum from the terms alone, and only that prefix is ever grown;
    # ``whole`` counts the calls that grow every member
    if hashed:
        _force_hash_engine(monkeypatch)
    grown = []
    grow = feasible._grow_sums
    monkeypatch.setattr(feasible, "_grow_sums", lambda *args: grown.append(args) or grow(*args))
    report = audit()
    assert len(grown) == calls
    assert sum(len(args) == 3 or args[3] == args[0] for args in grown) == whole
    assert report.fully_unique == fully_unique


@pytest.mark.parametrize(
    "n, k, z", [(9, 5, Fraction(1, 2)), (10, 5, 2), (12, 4, Fraction(3, 2)), (9, 5, 1)]
)
def test_audit_does_not_depend_on_the_chunk(monkeypatch, n, k, z):
    # run starts are marked, and members looked up, chunk by chunk; chunks
    # of 1, 2 and 3 members cut every run of a repeated hash. At (9, 5, 1)
    # the sums, in 95 count entries for 715 members, are counted from the
    # terms alone, and the members of the reported ones are looked up in
    # the same chunks, in the colex prefix grown for them. The hash engine
    # runs even where the radical classes would decide, as at (12, 4, 3/2)
    _force_hash_engine(monkeypatch)
    whole = audit_uniqueness(n, k, z)
    for chunk in (1, 2, 3):
        monkeypatch.setattr(feasible, "_LOOKUP_CHUNK", chunk)
        assert audit_uniqueness(n, k, z) == whole


@pytest.mark.parametrize(
    "n, k, z, collisions", [(9, 5, Fraction(1, 2), 139), (10, 5, 2, 240), (30, 5, 2, 2711)]
)
def test_audit_records_are_a_prefix(n, k, z, collisions):
    # from the radical classes (z = 1/2), injective (only the reported
    # sums regrouped) and counted from the terms alone (10 * 30**2 + 5
    # count entries for 46,376 members): fewer records are the first of the
    # full list
    full = audit_uniqueness(n, k, z, max_collisions=20)
    assert full.collision_count == collisions and len(full.collisions) == 20
    for m in (0, 1, 3):
        report = audit_uniqueness(n, k, z, max_collisions=m)
        assert report.collisions == full.collisions[:m]
        assert (report.unique_values, report.collision_count) == (
            full.unique_values,
            full.collision_count,
        )


@pytest.mark.parametrize(
    "sizes, exponents, records, expected",
    [
        pytest.param(
            [(1, 2), (5, 3), (9, 5), (13, 4), (21, 3)],
            (2, 7.0, Fraction(3, 2), Fraction(1, 2), Fraction(1, 3), 1.1),
            (0, 20),
            "563ccec9f69e9cc28e4e4cca22d7eec681c5843c48eb3c49e04393e1fee04c46",
            id="mixed-exponents",
        ),
        # 13 of these 24 audits count their members per sum, those whose
        # k * (k - 1) / 2 * n**z + k count entries are at most the member
        # count: (5, 3, 1) and (11, 9, 3) among them, but not (5, 3, 2)
        pytest.param(
            [(1, 2), (5, 3), (9, 5), (12, 4), (20, 6), (30, 5), (11, 9), (12, 9)],
            (1, 2, 3),
            (0, 1, 20),
            "e6d76c76a94005ae97db19366d80ee25db5623c4a7ed70539150016e0691b534",
            id="integer-exponents",
        ),
    ],
)
@pytest.mark.parametrize("workers", [1, 3], ids=["1-worker", "3-workers"])
def test_audit_reports_are_pinned(monkeypatch, workers, sizes, exponents, records, expected):
    # sha256 over the repr of every report on a grid of exponents, with
    # and without records, with the radical classes deciding every
    # rational exponent and with the hash engine alone. The audit keeps no
    # state between calls, so one caller or three callers running the grid
    # at once each get the same digest
    def grid_digest(_):
        digest = hashlib.sha256()
        for n, k in sizes:
            for z in exponents:
                for max_collisions in records:
                    report = audit_uniqueness(n, k, z, max_collisions=max_collisions)
                    digest.update(repr(report).encode())
        return digest.hexdigest()

    for hashed in (False, True):
        if hashed:
            _force_hash_engine(monkeypatch)
        with ThreadPoolExecutor(workers) as pool:
            assert list(pool.map(grid_digest, range(workers))) == [expected] * workers, hashed


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
    # radical coefficients must split them back apart. The radical classes
    # alone would decide every audit here, so the hash engine is forced
    _force_hash_engine(monkeypatch)
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
    # a hash that counts the 4s in a form puts exactly equal members of
    # A(8, 4) under different shared hashes; their classes span hashes
    monkeypatch.setattr(
        feasible, "_hash_table", lambda decomp, n, z: (np.arange(n + 1) == 4).astype(np.uint64)
    )
    report = audit_uniqueness(8, 4, z)
    assert (report.unique_values, report.collision_count) == (147, 17)
    _assert_matches_oracle(report, 8, 4, z)


def test_screen_passing_every_member_keeps_the_audit_exact(monkeypatch):
    # hash entries that are multiples of 2**16 give every member and
    # every target the low bits 0, so no hash is told apart by them and
    # the lookup in _members must compare whole values; the hash engine
    # is forced, since the radical classes would decide z = 1/2 with no
    # hash
    _force_hash_engine(monkeypatch)
    hash_table = feasible._hash_table
    monkeypatch.setattr(
        feasible, "_hash_table", lambda decomp, n, z: hash_table(decomp, n, z) << np.uint64(16)
    )
    for n, k, z in [(6, 4, Fraction(1, 2)), (9, 5, 2)]:
        table, _ = _audit_hashes(n, k, z)
        assert not np.any(table & np.uint64(0xFFFF))
        _assert_matches_oracle(audit_uniqueness(n, k, z), n, k, z)


def _audit_hashes(n: int, k: int, z, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The audit's hash table at (n, z), shifted left by ``shift`` bits,
    and the hashes of A(n, k) in the _grow_sums order."""
    z = Fraction(z)
    decomp = _root_decompositions(n, z.numerator, z.denominator)
    table = feasible._hash_table(decomp, n, z) << np.uint64(shift)
    return table, _grow_sums(n, k, table)


def _check_members(sums, targets) -> np.ndarray:
    """_members against a scan of every hash through a set; returns the
    positions found."""
    positions = _members(sums, targets)
    wanted = set(targets.tolist())
    assert positions.tolist() == [p for p, h in enumerate(sums.tolist()) if h in wanted]
    return positions


def test_members_match_a_brute_force_scan():
    n, k = 40, 4  # 12,341 members
    _, sums = _audit_hashes(n, k, Fraction(3, 2))
    distinct = np.unique(sums)
    low = distinct & np.uint64(0xFFFF)
    present = set(sums.tolist())
    absent = next(h for h in range(1, 2**16) if h not in present)
    # two hashes that members have, with equal low 16 bits
    order = np.argsort(low, kind="stable")
    first = np.flatnonzero(low[order][1:] == low[order][:-1])[0]
    pair = np.sort(distinct[order[first : first + 2]])
    # every other distinct hash: hundreds of the rest share low bits with
    # one of them, and only the whole values tell them apart
    spread = distinct[::2]
    assert np.count_nonzero(np.isin(low[1::2], spread & np.uint64(0xFFFF))) > 300
    assert len(_check_members(sums, np.empty(0, dtype=np.uint64))) == 0
    assert len(_check_members(sums, np.array([absent], dtype=np.uint64))) == 0
    assert len(_check_members(sums, pair)) >= 2
    assert len(_check_members(sums, spread)) >= len(spread)
    # every hash shifted by 16 bits has low bits 0, and only the whole
    # values tell the members apart
    _, sums = _audit_hashes(n, k, Fraction(3, 2), shift=16)
    for targets in [np.array([1 << 16], dtype=np.uint64), np.unique(sums)[5:400:7]]:
        assert not np.any(targets & np.uint64(0xFFFF))
        _check_members(sums, targets)


@pytest.mark.parametrize(
    "n, k, z, path",
    [(60, 5, 2, "table"), (80, 5, 2, "table"), (10, 5, 2, "sorted"), (60, 5, 3, "sorted")],
)
def test_integer_lookup_in_a_colex_prefix_equals_the_full_scan(monkeypatch, n, k, z, path):
    # the reported exact sums are the smallest, so their members lie in a
    # colex prefix of the sums, and both counting paths grow only that
    # prefix to look there: the sorted path again, the counting path for
    # the first time
    size = cardinality(n, k)
    assert (k * (k - 1) // 2 * n**z + k <= size) == (path == "table")
    looked = []
    members = feasible._members
    monkeypatch.setattr(feasible, "_members", lambda *args: looked.append(args) or members(*args))
    report = audit_uniqueness(n, k, z)
    ((sums, targets),) = looked
    _, full = _audit_hashes(n, k, z)
    assert len(targets) == len(report.collisions) == 20
    assert len(sums) < size and np.array_equal(sums, full[: len(sums)])
    assert np.array_equal(members(sums, targets), members(full, targets))


def test_grow_sums_up_to_a_top_is_a_colex_prefix():
    for n, k, z in [(9, 5, 2), (12, 4, Fraction(3, 2)), (6, 2, 1), (5, 3, 3)]:
        table, full = _audit_hashes(n, k, z)
        for top in range(n + 1):
            prefix = _grow_sums(n, k, table, top)
            assert len(prefix) == math.comb(top + k - 1, k - 1)
            assert np.array_equal(prefix, full[: len(prefix)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 7), z=st.integers(1, 4))
@example(n=30, k=5, z=2)
@example(n=9, k=5, z=1)
def test_count_sums_equals_counting_every_grown_sum(n, k, z):
    # the counts from the terms alone equal np.bincount of every member's
    # exact free sum, as the audit counted them before
    assume(cardinality(n, k) <= 400_000 and k * (k - 1) * n**z <= 2_000_000)
    table, sums = _audit_hashes(n, k, z)
    assert k * n**z < 2**64 and table[n] == n**z  # injective: the hashes are the sums
    assert np.array_equal(_count_sums(n, k, table), np.bincount((sums - table[n]).view(np.int64)))


def test_linear_audit_reaches_every_sum():
    # at z = 1 the free totals of some member add up to each s in
    # 0..(k - 1) * n, and to nothing else
    for k in range(2, 7):
        for n in range(1, 40):
            assert audit_uniqueness(n, k, 1, max_collisions=0).unique_values == (k - 1) * n + 1


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
        for form, rank in zip(forms, ranks):
            assert _forms_at([rank], n, k).tolist() == [list(form)]
        assert _forms_at(np.array(ranks), n, k).tolist() == [list(f) for f in forms]
        # position r of the grown sums holds the member of rank r; base
        # k+1 weights make each sum name its form
        weights = np.array([(k + 1) ** a for a in range(n + 1)], dtype=np.int64)
        by_rank = dict(zip(ranks, forms))
        expected = [sum((k + 1) ** a for a in by_rank[r]) for r in range(len(forms))]
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
# z = 1/q: 139 and 44 collisions, from the radical classes
@example(n=9, k=5, z=Fraction(1, 2))
@example(n=8, k=5, z=Fraction(1, 3))
# k * (k - 1) / 2 * n**z + k count entries at most the member count: the
# members are counted per exact sum from the terms alone
@example(n=30, k=5, z=2)
@example(n=20, k=6, z=2)
@example(n=12, k=4, z=1)
@example(n=9, k=5, z=1)
def test_audit_matches_exact_oracle(n, k, z):
    _assert_matches_oracle(audit_uniqueness(n, k, z), n, k, z)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 16), k=st.integers(2, 5), z=EXPONENTS)
# q >= 2 with several values per class: unique, and tied in the class v = 1
@example(n=12, k=4, z=Fraction(3, 2))
@example(n=16, k=5, z=Fraction(5, 2))
@example(n=9, k=5, z=Fraction(1, 2))
@example(n=8, k=5, z=Fraction(1, 3))
@example(n=16, k=3, z=Fraction(5, 4))
def test_classes_unique_matches_exact_oracle(n, k, z):
    # integer exponents too: then q = 1, and the one class holds all of 1..n
    z = Fraction(z)
    assert _classes_unique(n, k, z) == (len(exact_sum_classes(n, k, z)) == cardinality(n, k))


@pytest.mark.parametrize(
    "k, left, right",
    [(3, (59, 158), (133, 134)), (4, (13, 51, 64), (18, 44, 66)), (5, (2, 2, 9, 9), (3, 5, 6, 10))],
)
def test_default_exponent_first_collides_at_a_perfect_power(k, left, right):
    # at z = (k + 1)/k the free totals m**k of the class v = 1 add m**(k + 1)
    # each: A(n, k) has no collision below n = top**k, and at n = top**k the
    # members whose free totals are the k-th powers of ``left`` and of
    # ``right`` (the rest 0) are equal
    top = max(left + right)
    assert sum(m ** (k + 1) for m in left) == sum(m ** (k + 1) for m in right)
    assert sorted(left) != sorted(right) and len(left) == len(right) <= k - 1
    assert _classes_unique(top**k - 1, k, Fraction(k + 1, k))
    assert not _classes_unique(top**k, k, Fraction(k + 1, k))


def test_classes_unique_with_a_huge_denominator_returns_at_once():
    # 2**q > n, so each class holds one value, found without building 2**q
    start = time.perf_counter()
    assert _classes_unique(5, 4, Fraction(2 * 10**19 + 1, 10**19))
    assert _classes_unique(10**6, 9, Fraction(10**19 + 1, 10**19))
    assert time.perf_counter() - start < 1.0


RATIONAL_EXPONENTS = st.builds(Fraction, st.integers(1, 7), st.integers(2, 3)).filter(
    lambda z: z.denominator > 1
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(2, 6),
    z=RATIONAL_EXPONENTS,
    max_collisions=st.sampled_from([0, 1, 20]),
)
# ties in many classes, more collisions than records
@example(n=20, k=5, z=Fraction(1, 2), max_collisions=20)
@example(n=45, k=5, z=Fraction(1, 3), max_collisions=20)
@example(n=40, k=4, z=Fraction(2, 3), max_collisions=1)
# one collision: fewer than the records
@example(n=30, k=6, z=Fraction(5, 2), max_collisions=20)
@example(n=16, k=5, z=Fraction(5, 2), max_collisions=20)
def test_class_audit_matches_the_hash_engine(n, k, z, max_collisions):
    # the radical classes give the same report, records included, as the
    # hash engine, and the counts of the exact oracle
    assume(cardinality(n, k) <= 400_000)
    report = audit_uniqueness(n, k, z, max_collisions=max_collisions)
    with pytest.MonkeyPatch.context() as patch:
        _force_hash_engine(patch)
        assert report == audit_uniqueness(n, k, z, max_collisions=max_collisions)
    if cardinality(n, k) <= 5_000:
        classes = exact_sum_classes(n, k, z)
        assert report.unique_values == len(classes)
        assert report.collision_count == sum(len(forms) >= 2 for forms in classes)


def test_class_audit_builds_no_hash(monkeypatch):
    # the 635,376 members of A(60, 5) at z = 3/2 tie in the class v = 1,
    # and the classes alone give the report: no hash table, no growth
    def refuse(*args):
        raise AssertionError("hashed")

    monkeypatch.setattr(feasible, "_hash_table", refuse)
    monkeypatch.setattr(feasible, "_grow_sums", refuse)
    report = audit_uniqueness(60, 5, Fraction(3, 2))
    assert (report.total, report.unique_values, report.collision_count) == (635376, 635180, 196)
    assert len(report.collisions) == 20
    # 3 * 3**3 = 1**3 + 2 * 2**3 + 4**3, as totals m**2
    assert report.collisions[0].members == ((0, 9, 9, 9, 60), (1, 4, 4, 16, 60))


@pytest.mark.parametrize("n, k, z", [(60, 5, Fraction(3, 2)), (45, 5, Fraction(1, 3))])
@pytest.mark.parametrize("spare", [-1, 0, 1])
def test_class_audit_records_around_the_collision_count(n, k, z, spare):
    # asked for one record fewer than, as many as, or one more than there
    # are collisions, the classes build up to the last value reported and
    # give the hash engine's report
    count = audit_uniqueness(n, k, z, max_collisions=0).collision_count
    report = audit_uniqueness(n, k, z, max_collisions=count + spare)
    assert len(report.collisions) == count + min(spare, 0)
    with pytest.MonkeyPatch.context() as patch:
        _force_hash_engine(patch)
        assert report == audit_uniqueness(n, k, z, max_collisions=count + spare)


def test_class_audit_builds_each_colliding_member_once(monkeypatch):
    # with every record asked for, the class walk reaches each colliding
    # member, some of them from ties in two classes, and takes the exact
    # value of each once
    keyed = []
    exact_key = feasible._exact_key
    monkeypatch.setattr(feasible, "_exact_key", lambda *args: keyed.append(args) or exact_key(*args))
    report = audit_uniqueness(45, 5, Fraction(1, 3), max_collisions=10**6)
    assert len(report.collisions) == report.collision_count
    assert len(keyed) == sum(rec.count for rec in report.collisions)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 10**4), q=st.integers(2, 13), p=st.integers(1, 400))
@example(n=10**4, q=13, p=1)
@example(n=10**4, q=2, p=399)  # (1 / n)**(399 / 2) underflows to 0.0
def test_class_walk_terms_rise_with_the_total(n, q, p):
    # the class walk steps through the totals t in order, as if by float
    # term: it runs only when some class holds two values, so 2**q <= n,
    # and then no term (t / n)**z is below the one before it, so their
    # stable sort is the identity
    n = max(n, 2**q)
    terms, _ = feasible._float_value(n, Fraction(p, q))
    assert np.array_equal(np.argsort(terms[1:], kind="stable"), np.arange(n))


def _assert_matches_oracle(report, n, k, z):
    classes = exact_sum_classes(n, k, z)
    shared = {forms[0]: forms for forms in classes if len(forms) >= 2}
    assert report.unique_values == len(classes)
    assert report.collision_count == len(shared)
    assert len(report.collisions) == min(len(shared), 20)
    for rec in report.collisions:
        forms = shared[rec.members[0]]
        assert rec.count == len(forms)
        assert list(rec.members) == forms[:4]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(2, 5),
    z=EXPONENTS,
    shift=st.sampled_from([0, 16]),
    data=st.data(),
)
def test_members_match_scan_on_random_targets(n, k, z, shift, data):
    # random subsets of the hashes, plus random values no member need
    # have; with shift = 16 every hash has the low bits 0
    _, sums = _audit_hashes(n, k, z, shift)
    distinct = np.unique(sums)
    chosen = data.draw(st.sets(st.integers(0, len(distinct) - 1)))
    extra = data.draw(st.sets(st.integers(0, 2**64 - 1), max_size=3))
    targets = np.union1d(distinct[sorted(chosen)], np.array(sorted(extra), dtype=np.uint64))
    _check_members(sums, targets)
