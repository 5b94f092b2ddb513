import json

import numpy as np
import pytest

from distshift import (
    FrequencyDistribution,
    ParseError,
    ValidationError,
    parse_distributions,
)

from oracles import compositions


def test_frequency_distribution_derives_n_and_k():
    f = FrequencyDistribution((2, 1, 0))
    assert f.n == 3
    assert f.k == 3


@pytest.mark.parametrize(
    "counts",
    [(3,), (), (1, -1), (1, 2.0), (1, True), (0, 0)],
)
def test_frequency_distribution_rejects_invalid_counts(counts):
    with pytest.raises(ValidationError):
        FrequencyDistribution(counts)


def test_frequency_distribution_accepts_numpy_integers():
    f = FrequencyDistribution(np.array([3, 0, 2], dtype=np.int64))
    assert f.counts == (3, 0, 2) and f.n == 5
    assert all(type(c) is int for c in f.counts)
    assert json.loads(json.dumps(f.counts)) == [3, 0, 2]
    for bad in [(1, np.True_), (1, np.float64(2.0))]:
        with pytest.raises(ValidationError):
            FrequencyDistribution(bad)


def test_cumulative_distribution_accepts_numpy_integers():
    F = FrequencyDistribution.from_totals((np.int64(1), np.int32(3)))
    assert F.totals == (1, 3) and F.n == 3
    assert all(type(t) is int for t in F.totals)
    for bad in [(1, np.True_), (1, True), (1, np.float64(3.0)), (1, 3.0)]:
        with pytest.raises(ValidationError, match="non-integer total"):
            FrequencyDistribution.from_totals(bad)


def test_cumulative_distribution_rejects_decreasing_totals():
    with pytest.raises(ValidationError):
        FrequencyDistribution.from_totals((2, 1, 3))
    with pytest.raises(ValidationError):
        FrequencyDistribution.from_totals((-1, 0, 3))
    with pytest.raises(ValidationError):
        FrequencyDistribution.from_totals((0, 0, 0))


@pytest.mark.parametrize(
    "counts,totals",
    [
        ((0, 0, 3), (0, 0, 3)),
        ((3, 0, 0), (3, 3, 3)),
        ((2, 1, 0), (2, 3, 3)),
        ((1, 1, 1), (1, 2, 3)),
    ],
)
def test_cumulate_golden(counts, totals):
    assert FrequencyDistribution(counts).totals == totals


@pytest.mark.parametrize(
    "totals,counts",
    [((0, 0, 3), (0, 0, 3)), ((2, 3, 3), (2, 1, 0)), ((1, 2, 3), (1, 1, 1))],
)
def test_decumulate_golden(totals, counts):
    assert FrequencyDistribution.from_totals(totals).counts == counts


def test_cumulate_decumulate_round_trip_exhaustive():
    for n, k in [(6, 4), (5, 3), (3, 5)]:
        for counts in compositions(n, k):
            f = FrequencyDistribution(counts)
            assert f.totals[-1] == n
            assert all(f.totals[i] <= f.totals[i + 1] for i in range(k - 1))
            assert FrequencyDistribution.from_totals(f.totals) == f


def test_parse_csv_single():
    [f] = parse_distributions("2,1,0", "csv")
    assert f.counts == (2, 1, 0)
    assert (f.n, f.k) == (3, 3)


def test_parse_json_single():
    [f] = parse_distributions("[10,0,0]", "json")
    assert f.counts == (10, 0, 0)


def test_parse_rejects_negative_and_non_integer():
    with pytest.raises(ValidationError, match="negative"):
        parse_distributions("2,-1,0", "csv")
    with pytest.raises(ValidationError, match="non-integer"):
        parse_distributions("1,2.5,0", "csv")
    with pytest.raises(ValidationError):
        parse_distributions("[1, 2.5, 0]", "json")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_distributions("1,,3", "csv")
    assert info.value.position == 2
    with pytest.raises(ParseError):
        parse_distributions("1,x,3", "csv")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        parse_distributions("", "csv")
    with pytest.raises(ParseError):
        parse_distributions("\n  \n", "csv")


def test_parse_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        parse_distributions("1,2", "xml")


def test_parse_distributions_multi_line_csv():
    dists = parse_distributions("1,2,3\n\n4,5,6\n", "csv")
    assert [d.counts for d in dists] == [(1, 2, 3), (4, 5, 6)]


def test_parse_distributions_csv_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_distributions("1,2,3\n1,x,3", "csv")


def test_parse_distributions_json_flat_and_nested():
    assert [d.counts for d in parse_distributions("[1,2,3]", "json")] == [(1, 2, 3)]
    dists = parse_distributions("[[1,2,3],[4,5,6]]", "json")
    assert [d.counts for d in dists] == [(1, 2, 3), (4, 5, 6)]


def test_parse_distributions_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_distributions("[1, 2,", "json")
    with pytest.raises(ParseError):
        parse_distributions('"text"', "json")
