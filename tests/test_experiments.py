import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from distshift import (
    ExperimentConfig,
    FrequencyDistribution,
    MEASURE_NAMES,
    RegressionSummary,
    ValidationError,
    compare_all,
    fit_through_origin,
    run_experiment,
    sample_poisson_distribution,
    sample_uniform,
)
from distshift import experiments
from distshift.cli import build_parser

from oracles import truncated_poisson_pmf
from test_measures import assert_row_matches_report


def feasible_config(**overrides):
    base = dict(source="feasible_set", n=30, k=5, num_pairs=300, seed=123)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        {"source": "bogus"},
        {"n": 0},
        {"k": 1},
        {"num_pairs": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"lam": 5.0},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": True},
        {"num_pairs": 1.5},
        {"num_pairs": "3"},
        {"num_pairs": True},
        {"n": 5.0},
        {"n": True},
        {"k": 3.0},
        {"source": "poisson", "lam": 1000.0, "k": 3},
        {"source": "poisson", "lam": "5"},
        {"source": "poisson", "lam": True},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValidationError):
        feasible_config(**overrides)


def test_poisson_config_requires_rate():
    for lam in (None, 0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="lam must be positive and finite"):
            feasible_config(source="poisson", lam=lam)
    config = feasible_config(source="poisson", lam=5.0)
    assert config.lam == 5.0


def test_sample_poisson_invariants_and_determinism():
    rows = sample_poisson_distribution(5.0, 100, 5, seed=11, size=1)
    f = FrequencyDistribution(rows[0])
    assert f.n == 100 and f.k == 5
    assert np.array_equal(rows, sample_poisson_distribution(5.0, 100, 5, seed=11, size=1))


def test_sample_poisson_collapses_as_rate_vanishes():
    rows = sample_poisson_distribution(0.0001, 100, 5, seed=3, size=1)
    assert rows.tolist() == [[100, 0, 0, 0, 0]]


def test_sample_poisson_rejects_bad_arguments():
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="lam must be positive and finite"):
            sample_poisson_distribution(lam, 10, 3, seed=1, size=1)
    with pytest.raises(ValidationError):
        sample_poisson_distribution(5.0, 0, 3, seed=1, size=1)
    with pytest.raises(ValidationError):
        sample_poisson_distribution(5.0, 10, 1, seed=1, size=1)
    with pytest.raises(ValidationError, match="negligible mass"):
        sample_poisson_distribution(1000.0, 10, 3, seed=1, size=1)
    with pytest.raises(ValidationError, match="size must be at least 0"):
        sample_poisson_distribution(5.0, 10, 3, seed=1, size=-1)


@pytest.mark.parametrize("n, k", [(2**63 - 2, 3), (2**63 - 1, 2), (2**64, 5),
                                  (np.int64(2**63 - 1), 3), (2**62, 2**62 + 1)])
def test_samplers_refuse_slots_past_int64(n, k):
    # n + k - 1 >= 2**63 would overflow int64 in the draw, not in validation
    message = "n \\+ k - 1 must be below 2\\*\\*63"
    with pytest.raises(ValidationError, match=message):
        sample_uniform(n, k, seed=1, size=1)
    with pytest.raises(ValidationError, match=message):
        sample_poisson_distribution(5.0, n, k, seed=1, size=1)
    for source, lam in (("feasible_set", None), ("poisson", 5.0)):
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(source, n, k, 10, 1, lam=lam)


def test_samplers_still_draw_at_n_two_to_the_62():
    n = 2**62
    for rows in (sample_uniform(n, 3, seed=1, size=4),
                 sample_poisson_distribution(5.0, n, 3, seed=1, size=4)):
        assert rows.dtype == np.int64 and (rows >= 0).all()
        assert [sum(row) for row in rows.tolist()] == [n] * 4
    for source, lam in (("feasible_set", None), ("poisson", 5.0)):
        table = run_experiment(ExperimentConfig(source, n, 3, 6, 1, lam=lam))
        assert len(table.signed_rds) == 6


def test_sample_poisson_matches_truncated_pmf():
    # a million aggregated draws against the analytic conditional pmf;
    # at lam=30 only 3.6e-9 of the Poisson mass lies below k
    samples, n = 10000, 100
    for lam, k in [(5.0, 5), (30.0, 5)]:
        rng = np.random.default_rng(314)
        totals = sample_poisson_distribution(lam, n, k, rng, size=samples).sum(axis=0)
        draws = samples * n
        empirical = totals / draws
        expected = truncated_poisson_pmf(lam, k)
        stderr = np.sqrt(expected * (1 - expected) / draws)
        assert np.all(np.abs(empirical - expected) <= 3 * stderr), (lam, k)


def test_sample_poisson_batch_shape():
    for size in (25, 0):
        rows = sample_poisson_distribution(5.0, 40, 6, seed=9, size=size)
        assert rows.shape == (size, 6) and rows.dtype == np.int64
        assert (rows >= 0).all() and (rows.sum(axis=1) == 40).all()


def test_run_experiment_is_deterministic():
    config = feasible_config()
    one = run_experiment(config)
    two = run_experiment(config)
    for name in MEASURE_NAMES:
        assert np.array_equal(one.series[name], two.series[name], equal_nan=True)
    assert np.array_equal(one.signed_rds, two.signed_rds)
    assert one.summaries == two.summaries


#: Three blocks, the last one short, so that partitions have something to split.
SPANNING_PAIRS = 2 * experiments.BLOCK + 7


def test_run_experiment_threads_do_not_change_results():
    # threads is deprecated: a value above 1 warns and runs the same blocks
    config = feasible_config(num_pairs=SPANNING_PAIRS)
    serial = run_experiment(config, threads=1)
    for threads in (2, 3):
        with pytest.warns(DeprecationWarning, match="threads has no effect"):
            other = run_experiment(config, threads=threads)
        for name in MEASURE_NAMES:
            assert np.array_equal(serial.series[name], other.series[name], equal_nan=True)
        assert np.array_equal(serial.signed_rds, other.signed_rds)
        assert serial.summaries == other.summaries
    with pytest.raises(ValidationError):
        run_experiment(config, threads=0)


def _table_digest(table) -> str:
    """sha256 over the bytes of every series, the signed RDS and the
    repr of every summary, in table order."""
    digest = hashlib.sha256()
    for name in MEASURE_NAMES:
        digest.update(table.series[name].tobytes())
    digest.update(table.signed_rds.tobytes())
    for key, summary in table.summaries.items():
        digest.update(repr((key, dataclasses.astuple(summary))).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("source, lam, expected", [
    ("feasible_set", None, "97bf487f722f31688c5c16953086b660d10bf63ddddbc3683fd847689e6a2e20"),
    ("poisson", 5.0, "f6405ed49635e1fd1a6a6d5f6116da45f8780ab51198e2463580842cd6924fac"),
])
def test_multi_block_golden_digest(source, lam, expected):
    # stream version 3 at n=100, k=5 over two full blocks and a short one
    assert experiments.STREAM_VERSION == 3
    config = ExperimentConfig(source, 100, 5, SPANNING_PAIRS, 7, lam=lam)
    assert _table_digest(run_experiment(config)) == expected


def test_stream_draws_each_block_from_its_own_generator():
    # pair i of block b is rows 2i and 2i+1 of one draw of 2m members from
    # the generator keyed by (seed, b); checked against compare_all
    config = feasible_config(num_pairs=SPANNING_PAIRS, n=12, k=4, seed=2**64 - 1)
    table = run_experiment(config)
    for block, m in enumerate((experiments.BLOCK, experiments.BLOCK, 7)):
        ss = np.random.SeedSequence(config.seed, spawn_key=(block,))
        rows = sample_uniform(12, 4, np.random.Generator(np.random.PCG64(ss)), size=2 * m)
        for i in (0, m - 1):
            pair = block * experiments.BLOCK + i
            assert_row_matches_report(table.series, pair, table.signed_rds,
                                      FrequencyDistribution(rows[2 * i].tolist()),
                                      FrequencyDistribution(rows[2 * i + 1].tolist()))


def test_samplers_are_called_once_per_block_through_module_globals(monkeypatch):
    # wrapping experiments.sample_uniform (or the Poisson sampler) must see
    # every draw, one batch of 2m members per block
    for name, source in [("sample_uniform", {}),
                         ("sample_poisson_distribution", {"source": "poisson", "lam": 5.0})]:
        sizes = []
        original = getattr(experiments, name)

        def counting(*args, size, original=original, **kwargs):
            sizes.append(size)
            return original(*args, size=size, **kwargs)

        monkeypatch.setattr(experiments, name, counting)
        run_experiment(feasible_config(num_pairs=SPANNING_PAIRS, **source))
        assert sizes == [2 * experiments.BLOCK, 2 * experiments.BLOCK, 14]


def test_table_diagonal_and_symmetry():
    table = run_experiment(feasible_config())
    for x in MEASURE_NAMES:
        assert table.r_squared(x, x) == 1.0
        for y in MEASURE_NAMES:
            assert table.r_squared(x, y) == table.r_squared(y, x)
            assert 0.0 <= table.r_squared(x, y) <= 1.0


def test_table_drop_accounting():
    config = feasible_config(n=5, k=5, num_pairs=400, seed=7)
    table = run_experiment(config)
    for (x, y), summary in table.summaries.items():
        assert summary.sample_count + summary.dropped_count == config.num_pairs
    always_defined = table.summaries[("ks", "emd")]
    assert always_defined.dropped_count == 0
    involving_chi = table.summaries[("abs_rds", "chi_square")]
    assert involving_chi.dropped_count > 0  # small n, k makes shared zeros common
    nan_count = int(np.isnan(table.series["chi_square"]).sum())
    assert involving_chi.dropped_count == nan_count


def test_pair_roles_are_exchangeable():
    rng = np.random.default_rng(21)
    xs, ys, xs_swapped, ys_swapped = [], [], [], []
    rows = sample_uniform(30, 5, rng, size=400)
    for a, b in zip(rows[0::2], rows[1::2]):
        f1, f2 = FrequencyDistribution(a), FrequencyDistribution(b)
        forward = compare_all(f1, f2)
        backward = compare_all(f2, f1)
        assert backward.rds == -forward.rds
        assert backward.abs_rds == forward.abs_rds
        assert backward.ks == forward.ks
        assert backward.emd == forward.emd
        assert backward.rps_sqrt == forward.rps_sqrt
        assert backward.non_intersection == forward.non_intersection
        assert backward.chi_square == forward.chi_square
        xs.append(forward.abs_rds)
        ys.append(forward.emd)
        xs_swapped.append(backward.abs_rds)
        ys_swapped.append(backward.emd)
    fit = fit_through_origin(xs, ys)
    fit_swapped = fit_through_origin(xs_swapped, ys_swapped)
    assert fit == fit_swapped


def test_fork_export_and_sign_balance():
    config = feasible_config(num_pairs=2000, seed=31)
    table = run_experiment(config)
    assert list(table.series) == list(MEASURE_NAMES)
    assert len(table.series["emd"]) == len(table.signed_rds) == config.num_pairs
    signs = np.sign(table.signed_rds[table.signed_rds != 0])
    positive = int((signs > 0).sum())
    negative = len(signs) - positive
    assert abs(positive - negative) < 4 * math.sqrt(len(signs))
    assert np.array_equal(table.series["abs_rds"], np.abs(table.signed_rds))


def test_fork_export_carries_undefined_as_none():
    table = run_experiment(feasible_config(n=5, k=5, num_pairs=300, seed=7))
    undefined = np.isnan(table.series["kl_sqrt"])
    assert undefined.any() and not undefined.all()
    assert table.summaries[("abs_rds", "kl_sqrt")].dropped_count == int(undefined.sum())
    assert not np.isnan(table.signed_rds).any()


def test_fork_export_rejects_unknown_measure(capsys):
    table = run_experiment(feasible_config(num_pairs=10))
    parser = build_parser()
    fork = ["fork", "--source", "feasible", "-n", "30", "-k", "5", "--pairs", "10", "--seed", "123"]
    for name in table.series:
        assert parser.parse_args([*fork, "--measure", name]).measure == name
    with pytest.raises(SystemExit):
        parser.parse_args([*fork, "--measure", "bogus"])
    err = capsys.readouterr().err
    for name in MEASURE_NAMES:
        assert name in err


def test_fit_through_origin_golden():
    fit = fit_through_origin([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert fit.slope == 2.0
    assert fit.r_squared == 1.0
    assert not fit.degenerate

    orthogonal = fit_through_origin([1.0, 0.0], [0.0, 1.0])
    assert orthogonal.slope == 0.0
    assert orthogonal.r_squared == 0.0

    # a pair with a non-finite value is dropped and counted
    fit = fit_through_origin([1.0, np.nan, 2.0, 3.0], [2.0, 5.0, 4.0, np.inf])
    assert fit == RegressionSummary(2.0, 1.0, 2, 2)


def test_fit_through_origin_r_squared_is_symmetric():
    rng = np.random.default_rng(8)
    xs = rng.random(100)
    ys = xs + 0.1 * rng.random(100)
    assert fit_through_origin(xs, ys).r_squared == fit_through_origin(ys, xs).r_squared


def test_fit_through_origin_degenerate_cases():
    zero = fit_through_origin([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert zero.degenerate and zero.r_squared == 0.0
    assert fit_through_origin([1.0], [2.0]) == RegressionSummary(0.0, 0.0, 1, 0, degenerate=True)
    # a pair with a NaN is dropped, and one kept point is too few to fit
    assert fit_through_origin([1.0, np.nan], [2.0, 3.0]) == RegressionSummary(
        0.0, 0.0, 1, 1, degenerate=True
    )
    with pytest.raises(ValidationError):
        fit_through_origin([1.0, 2.0], [1.0])


def test_fit_through_origin_extreme_magnitudes():
    # sxx * syy underflows to 0 here, though each sum is a normal float
    tiny = fit_through_origin([1e-100, 2e-100], [1e-100, 3e-100])
    assert not tiny.degenerate
    assert tiny.slope == pytest.approx(1.4, rel=1e-15)
    assert tiny.r_squared == pytest.approx(0.98, rel=1e-15)
    # sxx and syy overflow to inf: no finite line can be fitted, and the
    # overflow is the summary's to report, not a RuntimeWarning's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = fit_through_origin([1e200, 2e200], [1e200, 3e200])
    assert huge == RegressionSummary(0.0, 0.0, 2, 0, degenerate=True)


@pytest.mark.parametrize("config, degenerate", [
    # chi-square undefined for 140 pairs and KL for 348: three masks, none degenerate
    (feasible_config(n=10, k=5, num_pairs=400, seed=7), False),
    # three pairs at n = 1, k = 2: KL is undefined in all three, so its fits are degenerate
    (feasible_config(n=1, k=2, num_pairs=3, seed=2), True),
])
def test_every_summary_is_fit_through_origin_of_its_series(config, degenerate):
    table = run_experiment(config)
    assert any(np.isnan(table.series["chi_square"]))
    assert any(summary.degenerate for summary in table.summaries.values()) == degenerate
    assert len(table.summaries) == len(MEASURE_NAMES) ** 2
    for (x, y), summary in table.summaries.items():
        assert summary == fit_through_origin(table.series[x], table.series[y]), (x, y)


@pytest.mark.parametrize("n", [2000, 10**6])
def test_large_n_with_few_pairs_builds_no_lookup_table(n):
    # an (n + 1)**2 table would hold 32 MB at n = 2000, and cannot be built at 10**6
    config = feasible_config(n=n, k=3, num_pairs=8, seed=5)
    run_experiment(feasible_config(n=3, k=3, num_pairs=8))  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        table = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.signed_rds) == 8
    assert peak < 2**20, peak
