"""Monte Carlo correlation experiments over random distribution pairs.

Pairs are drawn either uniformly from a feasible set A(n, k) or as
binned truncated-Poisson samples, one multinomial draw from the Poisson
pmf on bins 0..k-1 per member. Each pair yields seven series (|RDS|,
chi-square, non-intersection, sqrt KL, KS, EMD, sqrt RPS), which are
then fitted pairwise with least-squares lines through the origin.

Pair indices are cut into fixed blocks of ``BLOCK`` pairs. Block b draws
all of its members in one call from its own generator, derived from
(seed, b), and measures them in one batch, so a run is reproducible for
a fixed config. ``STREAM_VERSION`` names the random stream and changes
whenever a seeded run would draw differently.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import ValidationError
from .feasible import _require_int, _validate_nk, sample_uniform
from .measures import MEASURE_NAMES, _measure_columns
from .measures import compare_all  # unused here; bench/workloads.py patches this name

SOURCES = ("feasible_set", "poisson")
#: Version of the seeded random stream, written to every JSON payload.
#: 2: Poisson members are one multinomial draw instead of rejection sampling.
#: 3: one generator per block of BLOCK pairs instead of one per pair, each
#:    block drawing its members in one batch; uniform members by Floyd's algorithm.
STREAM_VERSION = 3
#: Pairs per block of the random stream; a constant, as it shapes the stream.
BLOCK = 4096


@dataclass(frozen=True)
class ExperimentConfig:
    source: str  # "feasible_set" or "poisson"
    n: int
    k: int
    num_pairs: int
    seed: int
    lam: float | None = None  # Poisson rate, required for source="poisson" and refused otherwise

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValidationError(f"source must be one of {SOURCES}, got {self.source!r}")
        _validate_nk(self.n, self.k)
        _require_int("num_pairs", self.num_pairs, 1)
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValidationError(f"seed must be an int in [0, 2**64), got {self.seed!r}")
        if self.source == "poisson":
            _truncated_poisson_pmf(self.lam, self.k)
        elif self.lam is not None:
            raise ValidationError(f"lam applies only to the poisson source, got lam={self.lam}")


def _truncated_poisson_pmf(lam, k: int) -> np.ndarray:
    """The Poisson(lam) pmf on 0..k-1, renormalised; refuses a rate that is
    not a positive finite real number (a bool is not one), or that leaves
    a mass below 1e-12 there."""
    if isinstance(lam, bool) or not isinstance(lam, (numbers.Real, type(None))):
        raise ValidationError(f"lam must be a real number, got {lam!r}")
    if lam is None or not 0 < lam < math.inf:
        raise ValidationError(f"lam must be positive and finite, got {lam}")
    # normalised in log space: at large lam every term of the pmf underflows
    log_pmf = np.array([v * math.log(lam) - lam - math.lgamma(v + 1) for v in range(k)])
    top = log_pmf.max()
    weights = np.exp(log_pmf - top)
    total = weights.sum()
    if top + math.log(total) < math.log(1e-12):
        raise ValidationError(f"Poisson(lam={lam}) has negligible mass below k={k}")
    return weights / total


@dataclass(frozen=True)
class RegressionSummary:
    slope: float
    r_squared: float
    sample_count: int
    dropped_count: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class CorrelationTable:
    """Pairwise OLS summaries plus the per-pair series behind them, keyed
    by the names in ``MEASURE_NAMES``."""

    config: ExperimentConfig
    summaries: dict[tuple[str, str], RegressionSummary]
    series: dict[str, np.ndarray]  # NaN marks an undefined value
    signed_rds: np.ndarray

    def r_squared(self, x: str, y: str) -> float:
        return self.summaries[(x, y)].r_squared


def sample_poisson_distribution(lam: float, n: int, k: int, seed, size: int) -> np.ndarray:
    """Draw ``size`` binnings of n draws from Poisson(lam) conditioned on
    values below k, as a ``(size, k)`` int64 array of counts, one per row.

    n iid draws conditioned on being below k are n iid draws from the
    Poisson pmf restricted to 0..k-1 and renormalised, so each row is
    one multinomial draw from that pmf and sums to n exactly.
    ``FrequencyDistribution(row)`` gives one row to the scalar API.
    """
    _validate_nk(n, k)
    _require_int("size", size, 0)
    return np.random.default_rng(seed).multinomial(n, _truncated_poisson_pmf(lam, k), size=size)


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> CorrelationTable:
    """Generate pairs, measure them block by block, and fit every pairwise
    regression.

    Table cells come from least-squares lines through the origin: every
    measure in the table is zero when the two distributions coincide, so
    the intercept is structurally zero and fitting one would only soak up
    curvature. An undefined chi-square or KL value is NaN in its series,
    and its pair is dropped only from the regressions that involve that
    series; ``dropped_count`` says how many. Every block runs in order in
    the calling process; ``threads`` is deprecated, and a value above 1
    has no effect.
    """
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    if threads > 1:
        warnings.warn("threads has no effect: every block runs in the calling process",
                      DeprecationWarning, stacklevel=2)
    parts = [_compute_block(config, block) for block in range(-(-config.num_pairs // BLOCK))]
    series = {name: np.concatenate([columns[name] for columns, _ in parts]) for name in MEASURE_NAMES}
    signed = np.concatenate([block_signed for _, block_signed in parts])
    fits = {}  # each unordered pair once: (x, y) and (y, x) share their sums
    for i, x in enumerate(MEASURE_NAMES):
        for y in MEASURE_NAMES[i:]:
            fits[x, y], fits[y, x] = _fit_both(series[x], series[y])
    summaries = {(x, y): fits[x, y] for x in MEASURE_NAMES for y in MEASURE_NAMES}
    return CorrelationTable(config=config, summaries=summaries, series=series, signed_rds=signed)


def _compute_block(config: ExperimentConfig, block: int):
    """The measure columns (NaN where a value is undefined) and signed
    RDS of one block of pairs, as ``_measure_columns`` returns them.

    The block's generator draws its 2m members in one call, pair i of the
    block being rows 2i and 2i+1. The samplers are looked up as module
    globals at call time, so a wrapper set on this module sees each call.
    """
    m = min(BLOCK, config.num_pairs - block * BLOCK)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(block,)))
    if config.source == "feasible_set":
        members = sample_uniform(config.n, config.k, rng, size=2 * m)
    else:
        members = sample_poisson_distribution(config.lam, config.n, config.k, rng, size=2 * m)
    return _measure_columns(members[0::2], members[1::2])


def fit_through_origin(xs, ys) -> RegressionSummary:
    """Least-squares line constrained to pass through the origin.

    r_squared here is the squared cosine similarity (Σxy)² / (Σx² Σy²),
    the share of the response captured by a pure proportionality; it is
    symmetric in the two series and equals 1 exactly when ys is a scalar
    multiple of xs. A pair with a non-finite value (NaN marks an undefined
    measure) is dropped and counted in ``dropped_count``; fewer than 2
    kept points, an all-zero series or a sum of squares that overflows
    yields a degenerate summary. r_squared is formed as two ratios, so
    no product of sums can underflow or overflow on its way.
    """
    return _fit_both(xs, ys)[0]


def _fit_both(xs, ys) -> tuple[RegressionSummary, RegressionSummary]:
    """``fit_through_origin(xs, ys)`` and ``(ys, xs)`` from one set of sums,
    bit for bit: the second slope is Σxy/Σy², r_squared the same product."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("series must be 1-D and of equal length")
    mask = np.isfinite(xs) & np.isfinite(ys)
    if not mask.all():  # copy out the kept pairs only when some are dropped
        xs, ys = xs[mask], ys[mask]
    kept, dropped = len(xs), len(mask) - len(xs)
    with np.errstate(over="ignore"):  # an overflowed sum is degenerate, below
        sxx = float(xs @ xs)
        syy = float(ys @ ys)
        sxy = float(xs @ ys)
    if kept < 2 or not (0.0 < sxx < math.inf and 0.0 < syy < math.inf):
        return (RegressionSummary(0.0, 0.0, kept, dropped, degenerate=True),) * 2
    slope, mirror = sxy / sxx, sxy / syy
    r_squared = min(slope * mirror, 1.0)
    return tuple(RegressionSummary(s, r_squared, kept, dropped) for s in (slope, mirror))

