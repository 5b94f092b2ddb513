"""Monte Carlo correlation experiments over random distribution pairs.

Pairs are drawn either uniformly from a feasible set A(n, k) or as
binned truncated-Poisson samples, one multinomial draw from the Poisson
pmf on bins 0..k-1 per member. Every pair gets the full measure
report; the seven series (|RDS|, chi-square, non-intersection, sqrt KL,
KS, EMD, sqrt RPS) are then fitted pairwise with least-squares lines
through the origin.

Pair indices are cut into fixed blocks of ``BLOCK`` pairs. Block b draws
all of its members in one call from its own generator, derived from
(seed, b), and measures them in one batch, so a run is reproducible for
a fixed config and can be partitioned across workers, block by block,
without changing any result. ``STREAM_VERSION`` names the random stream
and changes whenever a seeded run would draw differently.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .distributions import FrequencyDistribution, ValidationError
from .feasible import _validate_nk, sample_uniform
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
        if self.num_pairs < 1:
            raise ValidationError(f"num_pairs must be at least 1, got {self.num_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if self.source == "poisson":
            _validate_lam(self.lam)
        elif self.lam is not None:
            raise ValidationError(f"lam applies only to the poisson source, got lam={self.lam}")


def _validate_lam(lam) -> None:
    if lam is None or not 0 < lam < math.inf:
        raise ValidationError(f"lam must be positive and finite, got {lam}")


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


def sample_poisson_distribution(
    lam: float, n: int, k: int, seed, size: int | None = None
) -> FrequencyDistribution | np.ndarray:
    """Bin n draws from Poisson(lam) conditioned on values below k.

    n iid draws conditioned on being below k are n iid draws from the
    Poisson pmf restricted to 0..k-1 and renormalised, so the counts are
    one multinomial draw from that pmf and always sum to n exactly.
    ``size=None`` returns one ``FrequencyDistribution``, the first row
    of ``size=1``; an int returns a ``(size, k)`` int64 count array.
    """
    _validate_lam(lam)
    _validate_nk(n, k)
    # normalised in log space: at large lam every term of the pmf underflows
    log_pmf = np.array([v * math.log(lam) - lam - math.lgamma(v + 1) for v in range(k)])
    top = log_pmf.max()
    weights = np.exp(log_pmf - top)
    total = weights.sum()
    if top + math.log(total) < math.log(1e-12):
        raise ValidationError(f"Poisson(lam={lam}) has negligible mass below k={k}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, weights / total, size=1 if size is None else size)
    if size is None:
        return FrequencyDistribution(tuple(counts[0].tolist()))
    return counts


def _block_generator(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.PCG64(ss))


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> CorrelationTable:
    """Generate pairs, compute all measures, and fit every pairwise regression.

    Table cells come from least-squares lines through the origin: every
    measure in the table is zero when the two distributions coincide, so
    the intercept is structurally zero and fitting one would only soak up
    curvature. An undefined chi-square or KL value is NaN in its series,
    and its pair is dropped only from the regressions that involve that
    series; ``dropped_count`` says how many. ``threads`` partitions the
    blocks of pairs into that many chunks, run by at most one process per
    CPU; results are independent of the partitioning.
    """
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    blocks = -(-config.num_pairs // BLOCK)
    per = -(-blocks // threads)
    firsts = range(0, blocks, per)
    stops = [min(first + per, blocks) for first in firsts]
    if len(firsts) == 1:
        chunks = [_compute_blocks(config, 0, blocks)]
    else:
        workers = min(threads, len(firsts), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_compute_blocks, repeat(config), firsts, stops))
    parts = [part for chunk in chunks for part in chunk]
    rows = np.concatenate([p[0] for p in parts])
    signed = np.concatenate([p[1] for p in parts])
    series = {name: rows[:, j].copy() for j, name in enumerate(MEASURE_NAMES)}
    summaries = {
        (x, y): fit_through_origin(series[x], series[y]) for x in MEASURE_NAMES for y in MEASURE_NAMES
    }
    return CorrelationTable(config=config, summaries=summaries, series=series, signed_rds=signed)


def _compute_blocks(config: ExperimentConfig, first: int, stop: int):
    """Measure rows (NaN where a value is undefined) and signed RDS, one
    pair of arrays per block, for blocks first..stop-1.

    Block b's generator draws its 2m members in one call, pair i of the
    block being rows 2i and 2i+1. The samplers are looked up as module
    globals at call time, so a wrapper set on this module sees each call.
    """
    parts = []
    for block in range(first, stop):
        m = min(BLOCK, config.num_pairs - block * BLOCK)
        rng = _block_generator(config.seed, block)
        if config.source == "feasible_set":
            members = sample_uniform(config.n, config.k, rng, size=2 * m)
        else:
            members = sample_poisson_distribution(config.lam, config.n, config.k, rng, size=2 * m)
        parts.append(_measure_columns(members[0::2], members[1::2]))
    return parts


def fit_through_origin(xs, ys) -> RegressionSummary:
    """Least-squares line constrained to pass through the origin.

    r_squared here is the squared cosine similarity (Σxy)² / (Σx² Σy²),
    the share of the response captured by a pure proportionality; it is
    symmetric in the two series and equals 1 exactly when ys is a scalar
    multiple of xs. A pair with a non-finite value (NaN marks an undefined
    measure) is dropped and counted in ``dropped_count``; fewer than 2
    kept points or an all-zero series yields a degenerate summary.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("series must be 1-D and of equal length")
    mask = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[mask], ys[mask]
    kept, dropped = len(xs), len(mask) - len(xs)
    sxx = float(xs @ xs)
    syy = float(ys @ ys)
    sxy = float(xs @ ys)
    if kept < 2 or sxx <= 0.0 or syy <= 0.0:
        return RegressionSummary(0.0, 0.0, kept, dropped, degenerate=True)
    slope = sxy / sxx
    r_squared = min(sxy * sxy / (sxx * syy), 1.0)
    return RegressionSummary(slope, r_squared, kept, dropped)

