"""Tests of the benchmark's correctness checkers.

Kept out of the library's test suite; run them with

    python -m pytest bench/tests -q

Each oracle is held to hand-computed small cases, and a deliberately
corrupted output must be counted as a failed operation.
"""
import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from distshift import ExperimentConfig, audit_uniqueness, run_experiment  # noqa: E402

# ------------------------------------------------------------------ oracles


def test_ds_oracle_by_hand():
    # F/n = (1/2, 1), k = 2, z = 3/2: (2**-1.5 + 1 - 1) / 1
    assert checks.ds_oracle(np.array([1, 1])) == pytest.approx(0.5**1.5, rel=1e-15)
    # all mass in the left-most bin gives 1, in the right-most 0
    assert checks.ds_oracle(np.array([4, 0, 0])) == pytest.approx(1.0)
    assert checks.ds_oracle(np.array([0, 0, 4])) == pytest.approx(0.0)


def test_scalar_oracle_by_hand():
    # p = (1, 0), q = (1/2, 1/2)
    got = dict(zip(checks.SCALAR_COLUMNS, checks.scalar_oracle(np.array([2, 0]), np.array([1, 1]))))
    assert got["ds1"] == pytest.approx(1.0)
    assert got["ds2"] == pytest.approx(0.5**1.5)
    assert got["rds"] == pytest.approx(0.5**1.5 - 1.0)
    assert got["abs_rds"] == pytest.approx(1.0 - 0.5**1.5)
    assert got["chi_square"] == pytest.approx(0.5 * (0.25 / 1.5 + 0.25 / 0.5))
    assert got["kl_sqrt"] == pytest.approx(math.sqrt(math.log(2.0)))
    assert got["ks"] == pytest.approx(0.5)
    assert got["non_intersection"] == pytest.approx(0.5)
    assert got["emd"] == pytest.approx(0.5)
    assert got["rps_sqrt"] == pytest.approx(0.5)


def test_scalar_oracle_undefined_measures():
    # bin 1 empty on both sides: chi-square and KL undefined
    both = dict(zip(checks.SCALAR_COLUMNS, checks.scalar_oracle(np.array([1, 0, 1]), np.array([1, 0, 3]))))
    assert math.isnan(both["chi_square"]) and math.isnan(both["kl_sqrt"])
    # p > 0 where q = 0: KL undefined, chi-square defined
    one = dict(zip(checks.SCALAR_COLUMNS, checks.scalar_oracle(np.array([1, 0, 1]), np.array([0, 1, 1]))))
    assert math.isnan(one["kl_sqrt"])
    assert one["chi_square"] == pytest.approx(0.5)
    assert one["emd"] == pytest.approx(0.5)


def test_power_parts_by_hand():
    assert checks._power_parts(8, 3, 2) == (16, 2)  # 8**1.5 = 16 sqrt 2
    assert checks._power_parts(12, 3, 2) == (24, 3)  # 12**1.5 = 24 sqrt 3
    assert checks._power_parts(16, 5, 4) == (32, 1)  # 16**1.25 = 32
    assert checks._power_parts(7, 2, 1) == (49, 1)


def test_cumulative_forms_by_hand():
    forms = checks.cumulative_forms(2, 3).tolist()
    assert forms == [[0, 0, 2], [0, 1, 2], [0, 2, 2], [1, 1, 2], [1, 2, 2], [2, 2, 2]]


def test_count_distinct_by_hand():
    # sums over A(2, 3) at z = 1: 2, 3, 4, 4, 5, 6
    assert checks.count_distinct(2, 3, Fraction(1)) == (5, 1)
    # at z = 2: 4, 5, 8, 6, 9, 12
    assert checks.count_distinct(2, 3, Fraction(2)) == (6, 0)


@pytest.mark.parametrize("n, k, z", [(6, 4, Fraction(3, 2)), (8, 3, Fraction(4, 3)),
                                     (9, 4, Fraction(2)), (10, 3, Fraction(5, 2))])
def test_count_distinct_matches_brute_force(n, k, z):
    values = [checks.exact_value(f, z) for f in checks.cumulative_forms(n, k)]
    mult = {}
    for v in values:
        mult[v] = mult.get(v, 0) + 1
    want = (len(mult), sum(1 for c in mult.values() if c >= 2))
    assert checks.count_distinct(n, k, z) == want


def test_witness_check_by_hand():
    # 0 + 25 + 25 = 9 + 16 + 25
    assert checks.check_witnesses(5, 3, Fraction(2), 2, [(0, 5, 5), (3, 4, 5)], 4) == []
    assert checks.check_witnesses(5, 3, Fraction(2), 2, [(0, 5, 5), (3, 3, 5)], 4)
    assert checks.check_witnesses(5, 3, Fraction(2), 2, [(0, 5, 5), (0, 5, 5)], 4)
    assert checks.check_witnesses(5, 3, Fraction(2), 2, [(5, 0, 5), (3, 4, 5)], 4)


# ------------------------------------------------------- corrupted outputs


def _failed_ops(wl, outputs):
    ledger = run.Ledger(wl)
    for key, result in outputs:
        ledger.record(key, result)
    ledger.verify()
    return sorted(ledger.errors)


class SmallAudits(workloads.Audits):
    name = "small-audits"
    configs = [(10, 3, 2, Fraction(2), 10), (12, 3, Fraction(3, 2), Fraction(3, 2), 12)]


def test_audit_outputs_pass_and_corruptions_fail():
    wl = SmallAudits(0)
    good = [(cfg[:3], workloads._audit(*cfg[:3])) for cfg in wl.configs]
    assert _failed_ops(wl, good) == []
    key, report = good[0]
    assert report.collisions, "the z=2 audit must report collisions for this test"
    wrong_count = dataclasses.replace(report, unique_values=report.unique_values + 1)
    rec = report.collisions[0]
    bad_rec = dataclasses.replace(rec, members=(rec.members[0], (0, 1, 10)))
    bad_witness = dataclasses.replace(report, collisions=(bad_rec,) + report.collisions[1:])
    assert _failed_ops(wl, [(key, wrong_count)]) == [0]
    assert _failed_ops(wl, [(key, bad_witness)]) == [0]
    # a later run of the same input that differs from the first fails on its own
    assert _failed_ops(wl, [(key, report), (key, wrong_count)]) == [1]


def test_scalar_outputs_pass_and_corruptions_fail():
    wl = workloads.Scalar(3)
    text, _ = wl.blocks[0]
    result = workloads.score_block(text)
    assert _failed_ops(wl, [(0, result)]) == []
    dists, shifts, rel, reports = result
    changed = dataclasses.replace(reports[5], emd=reports[5].emd * (1 + 1e-6))
    corrupt = (dists, shifts, rel, reports[:5] + [changed] + reports[6:])
    assert _failed_ops(wl, [(0, corrupt)]) == [0]
    assert _failed_ops(wl, [(0, result), (0, corrupt)]) == [1]


def test_experiment_outputs_pass_and_corruptions_fail():
    wl = workloads.Experiment(0)
    table = run_experiment(ExperimentConfig("feasible_set", 100, 5, 2000, 7))
    key = ("feasible_set", 1)
    assert _failed_ops(wl, [(key, table)]) == []
    ks = table.series["ks"].copy()
    ks[0] = table.series["emd"][0] + 0.5
    bad_series = dataclasses.replace(table, series={**table.series, "ks": ks})
    assert _failed_ops(wl, [(key, bad_series)]) == [0]
    cell = table.summaries[("abs_rds", "emd")]
    bad_r2 = dataclasses.replace(table, summaries={
        **table.summaries, ("abs_rds", "emd"): dataclasses.replace(cell, r_squared=0.5)})
    assert _failed_ops(wl, [(key, bad_r2)]) == [0]


def test_raising_operation_is_failed():
    wl = SmallAudits(0)
    assert _failed_ops(wl, [((10, 3, 2), ValueError("boom"))]) == [0]


def test_known_fault_is_the_only_failing_collide_audit():
    report = audit_uniqueness(400, 3, 7.0)
    errs = workloads.AuditCollide(0).check((400, 3, 7.0), report)
    assert any("80601" in e for e in errs)
    assert (400, 3, 7.0) in workloads.AuditCollide.known_faults


# ------------------------------------------------------------ items_per_s


def test_items_per_s_sums_up_each_operation_over_rounds():
    rounds = [[1.0, 4.0], [3.0, 2.0], [2.0, 3.0]]
    # the median time of each operation, or the fastest for scalar's short blocks
    assert run.items_per_s(workloads.Experiment(1), 10, rounds) == 10 / (2.0 + 3.0)
    assert run.items_per_s(workloads.Scalar(1), 10, rounds) == 10 / (1.0 + 2.0)
