import math
import os

import numpy as np
import pytest

from distshift import (
    ExperimentConfig,
    FrequencyDistribution,
    MEASURE_NAMES,
    UndefinedMeasureError,
    ValidationError,
    compare_all,
    export_fork_data,
    fit_through_origin,
    run_experiment,
    sample_poisson_distribution,
    sample_uniform,
)
from distshift import experiments
from distshift.experiments import STREAM_VERSION

from oracles import truncated_poisson_pmf


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
        {"undefined_policy": "ignore"},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValidationError):
        feasible_config(**overrides)


def test_poisson_config_requires_rate():
    with pytest.raises(ValidationError):
        feasible_config(source="poisson")
    config = feasible_config(source="poisson", lam=5.0)
    assert config.lam == 5.0


def test_sample_poisson_invariants_and_determinism():
    f = sample_poisson_distribution(5.0, 100, 5, seed=11)
    assert f.n == 100 and f.k == 5
    assert f.counts == sample_poisson_distribution(5.0, 100, 5, seed=11).counts


def test_sample_poisson_collapses_as_rate_vanishes():
    f = sample_poisson_distribution(0.0001, 100, 5, seed=3)
    assert f.counts == (100, 0, 0, 0, 0)


def test_sample_poisson_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        sample_poisson_distribution(0.0, 10, 3, seed=1)
    with pytest.raises(ValidationError):
        sample_poisson_distribution(5.0, 0, 3, seed=1)
    with pytest.raises(ValidationError):
        sample_poisson_distribution(5.0, 10, 1, seed=1)
    with pytest.raises(ValidationError, match="negligible mass"):
        sample_poisson_distribution(1000.0, 10, 3, seed=1)


def test_sample_poisson_matches_truncated_pmf():
    # a million aggregated draws against the analytic conditional pmf;
    # at lam=30 only 3.6e-9 of the Poisson mass lies below k
    samples, n = 10000, 100
    for lam, k in [(5.0, 5), (30.0, 5)]:
        rng = np.random.default_rng(314)
        totals = np.zeros(k, dtype=np.int64)
        for _ in range(samples):
            totals += np.array(sample_poisson_distribution(lam, n, k, rng).counts)
        draws = samples * n
        empirical = totals / draws
        expected = truncated_poisson_pmf(lam, k)
        stderr = np.sqrt(expected * (1 - expected) / draws)
        assert np.all(np.abs(empirical - expected) <= 3 * stderr), (lam, k)


def test_run_experiment_is_deterministic():
    config = feasible_config()
    one = run_experiment(config)
    two = run_experiment(config)
    for name in MEASURE_NAMES:
        assert np.array_equal(one.series[name], two.series[name], equal_nan=True)
    assert np.array_equal(one.signed_rds, two.signed_rds)
    assert one.summaries == two.summaries


def test_run_experiment_threads_do_not_change_results():
    for source in [{}, {"source": "poisson", "lam": 5.0}]:
        config = feasible_config(num_pairs=250, **source)
        serial = run_experiment(config, threads=1)
        parallel = run_experiment(config, threads=3)
        for name in MEASURE_NAMES:
            assert np.array_equal(serial.series[name], parallel.series[name], equal_nan=True)
        assert np.array_equal(serial.signed_rds, parallel.signed_rds)
        assert serial.summaries == parallel.summaries
    with pytest.raises(ValidationError):
        run_experiment(config, threads=0)


def test_process_pool_is_capped_at_the_cpu_count(monkeypatch):
    # the fork start method forks every worker at the first submit, so a
    # huge threads value must not size the pool; this fake maps in-process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    config = feasible_config(num_pairs=50)
    table = run_experiment(config, threads=10**6)
    assert sizes == [min(50, os.cpu_count() or 1)]
    serial = run_experiment(config, threads=1)
    assert len(sizes) == 1  # one chunk runs without a pool
    for name in MEASURE_NAMES:
        assert np.array_equal(table.series[name], serial.series[name], equal_nan=True)
    assert np.array_equal(table.signed_rds, serial.signed_rds)
    assert table.summaries == serial.summaries


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


def test_fail_policy_reports_first_undefined_pair():
    config = feasible_config(n=4, k=4, num_pairs=200, seed=5)
    table = run_experiment(config)
    undefined_rows = np.isnan(table.series["chi_square"]) | np.isnan(table.series["kl_sqrt"])
    first = int(np.flatnonzero(undefined_rows)[0])
    with pytest.raises(UndefinedMeasureError) as info:
        run_experiment(feasible_config(n=4, k=4, num_pairs=200, seed=5,
                                       undefined_policy="fail"))
    assert info.value.pair_index == first
    assert info.value.names <= {"chi_square", "kl_sqrt"}
    f1, f2 = FrequencyDistribution(info.value.f1), FrequencyDistribution(info.value.f2)
    assert compare_all(f1, f2).undefined_flags == info.value.names


def test_fail_policy_finds_same_pair_across_thread_counts():
    config = feasible_config(n=4, k=4, num_pairs=200, seed=5, undefined_policy="fail")
    indexes = set()
    for threads in (1, 4):
        with pytest.raises(UndefinedMeasureError) as info:
            run_experiment(config, threads=threads)
        indexes.add(info.value.pair_index)
    assert len(indexes) == 1


def test_pair_roles_are_exchangeable():
    rng = np.random.default_rng(21)
    xs, ys, xs_swapped, ys_swapped = [], [], [], []
    for _ in range(200):
        f1 = sample_uniform(30, 5, rng)
        f2 = sample_uniform(30, 5, rng)
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
    rows = export_fork_data(table, "emd")
    assert len(rows) == config.num_pairs
    signs = [math.copysign(1, r) for _, r in rows if r != 0]
    positive = sum(1 for s in signs if s > 0)
    negative = len(signs) - positive
    assert abs(positive - negative) < 4 * math.sqrt(len(signs))
    values = np.array([v for v, _ in rows])
    assert np.array_equal(values, table.series["emd"])


def test_fork_export_carries_undefined_as_none():
    table = run_experiment(feasible_config(n=5, k=5, num_pairs=300, seed=7))
    rows = export_fork_data(table, "kl_sqrt")
    assert any(v is None for v, _ in rows)
    undefined_count = sum(1 for v, _ in rows if v is None)
    assert undefined_count == int(np.isnan(table.series["kl_sqrt"]).sum())


def test_fork_export_rejects_unknown_measure():
    table = run_experiment(feasible_config(num_pairs=10))
    with pytest.raises(ValueError) as info:
        export_fork_data(table, "bogus")
    for name in MEASURE_NAMES:
        assert name in str(info.value)


def test_fit_through_origin_golden():
    fit = fit_through_origin([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert fit.slope == 2.0
    assert fit.r_squared == 1.0
    assert not fit.degenerate

    orthogonal = fit_through_origin([1.0, 0.0], [0.0, 1.0])
    assert orthogonal.slope == 0.0
    assert orthogonal.r_squared == 0.0


def test_fit_through_origin_r_squared_is_symmetric():
    rng = np.random.default_rng(8)
    xs = rng.random(100)
    ys = xs + 0.1 * rng.random(100)
    assert fit_through_origin(xs, ys).r_squared == fit_through_origin(ys, xs).r_squared


def test_fit_through_origin_degenerate_cases():
    zero = fit_through_origin([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert zero.degenerate and zero.r_squared == 0.0
    with pytest.raises(ValidationError):
        fit_through_origin([1.0], [2.0])


def test_table_serialization_shapes():
    table = run_experiment(feasible_config(num_pairs=50))
    payload = table.to_json_dict()
    assert list(payload["config"]) == [
        "source", "n", "k", "num_pairs", "seed", "lam", "undefined_policy", "stream_version"
    ]
    assert payload["config"]["source"] == "feasible_set"
    assert payload["config"]["stream_version"] == STREAM_VERSION
    assert list(payload["r_squared"]["ks"]["emd"]) == [
        "slope", "r_squared", "sample_count", "dropped_count", "degenerate"
    ]
    assert payload["measure_names"] == list(MEASURE_NAMES)
    assert payload["r_squared"]["emd"]["emd"]["r_squared"] == 1.0

    csv = table.r2_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "measure," + ",".join(MEASURE_NAMES)
    assert len(lines) == 1 + len(MEASURE_NAMES)
    assert csv.endswith("\n")
