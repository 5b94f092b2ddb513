"""Monte Carlo correlation experiments over random distribution pairs.

Pairs are drawn either uniformly from a feasible set A(n, k) or as
binned truncated-Poisson samples, one multinomial draw from the Poisson
pmf on bins 0..k-1 per member. Every pair gets the full measure
report; the seven series (|RDS|, chi-square, non-intersection, sqrt KL,
KS, EMD, sqrt RPS) are then fitted pairwise with least-squares lines
through the origin.

Pair i is generated from its own generator derived from (seed, i), so a
run is reproducible for a fixed config and can be partitioned across
workers without changing any result. ``STREAM_VERSION`` names the
random stream and changes whenever a seeded run would draw differently.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import repeat

import numpy as np

from .distributions import FrequencyDistribution, ValidationError
from .feasible import sample_uniform
from .measures import MEASURE_NAMES, compare_all

SOURCES = ("feasible_set", "poisson")
UNDEFINED_POLICIES = ("drop", "fail")
#: Version of the seeded random stream, written to every JSON payload.
#: 2: Poisson members are one multinomial draw instead of rejection sampling.
STREAM_VERSION = 2


class UndefinedMeasureError(ValidationError):
    """Raised under undefined_policy='fail'; carries the offending pair."""

    def __init__(self, pair_index: int, f1: tuple, f2: tuple, names: frozenset):
        super().__init__(
            f"pair {pair_index} ({list(f1)} vs {list(f2)}) has undefined measures: "
            f"{sorted(names)}"
        )
        self.pair_index = pair_index
        self.f1 = f1
        self.f2 = f2
        self.names = names


@dataclass(frozen=True)
class ExperimentConfig:
    source: str  # "feasible_set" or "poisson"
    n: int
    k: int
    num_pairs: int
    seed: int
    lam: float | None = None  # Poisson rate, required for source="poisson"
    undefined_policy: str = "drop"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValidationError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.n < 1:
            raise ValidationError(f"n must be at least 1, got {self.n}")
        if self.k < 2:
            raise ValidationError(f"k must be at least 2, got {self.k}")
        if self.num_pairs < 1:
            raise ValidationError(f"num_pairs must be at least 1, got {self.num_pairs}")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
        if self.source == "poisson" and (self.lam is None or not self.lam > 0):
            raise ValidationError("poisson source requires lam > 0")
        if self.undefined_policy not in UNDEFINED_POLICIES:
            raise ValidationError(
                f"undefined_policy must be one of {UNDEFINED_POLICIES}, "
                f"got {self.undefined_policy!r}"
            )


@dataclass(frozen=True)
class RegressionSummary:
    slope: float
    r_squared: float
    sample_count: int
    dropped_count: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class CorrelationTable:
    """Pairwise OLS summaries plus the per-pair series behind them."""

    config: ExperimentConfig
    measure_names: tuple[str, ...]
    summaries: dict[tuple[str, str], RegressionSummary]
    series: dict[str, np.ndarray]  # NaN marks an undefined value
    signed_rds: np.ndarray

    def r_squared(self, x: str, y: str) -> float:
        return self.summaries[(x, y)].r_squared

    def to_json_dict(self) -> dict:
        matrix = {
            x: {y: asdict(self.summaries[(x, y)]) for y in self.measure_names}
            for x in self.measure_names
        }
        cfg = dict(asdict(self.config), stream_version=STREAM_VERSION)
        return {"config": cfg, "measure_names": list(self.measure_names), "r_squared": matrix}

    def r2_csv(self) -> str:
        """CSV matrix of r-squared values, rows and columns in series order."""
        lines = ["measure," + ",".join(self.measure_names)]
        for x in self.measure_names:
            cells = (format(self.summaries[(x, y)].r_squared, ".12g") for y in self.measure_names)
            lines.append(x + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def sample_poisson_distribution(lam: float, n: int, k: int, seed) -> FrequencyDistribution:
    """Bin n draws from Poisson(lam) conditioned on values below k.

    n iid draws conditioned on being below k are n iid draws from the
    Poisson pmf restricted to 0..k-1 and renormalised, so the counts are
    one multinomial draw from that pmf and always sum to n exactly.
    """
    if not lam > 0:
        raise ValidationError(f"lam must be positive, got {lam}")
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    if k < 2:
        raise ValidationError(f"k must be at least 2, got {k}")
    # normalised in log space: at large lam every term of the pmf underflows
    log_pmf = np.array([v * math.log(lam) - lam - math.lgamma(v + 1) for v in range(k)])
    top = log_pmf.max()
    weights = np.exp(log_pmf - top)
    total = weights.sum()
    if top + math.log(total) < math.log(1e-12):
        raise ValidationError(f"Poisson(lam={lam}) has negligible mass below k={k}")
    counts = np.random.default_rng(seed).multinomial(n, weights / total)
    return FrequencyDistribution(tuple(counts.tolist()))


def _pair_generator(seed: int, pair_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(pair_index,))
    return np.random.Generator(np.random.PCG64(ss))


def _draw_member(config: ExperimentConfig, rng: np.random.Generator) -> FrequencyDistribution:
    if config.source == "feasible_set":
        return sample_uniform(config.n, config.k, rng)
    return sample_poisson_distribution(config.lam, config.n, config.k, rng)


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> CorrelationTable:
    """Generate pairs, compute all measures, and fit every pairwise regression.

    Table cells come from least-squares lines through the origin: every
    measure in the table is zero when the two distributions coincide, so
    the intercept is structurally zero and fitting one would only soak up
    curvature. Pairs where chi-square or KL is undefined are dropped only
    from the regressions that involve the undefined series (the drop
    policy), or abort the run (the fail policy). ``threads`` partitions
    pair indices into that many chunks, run by at most one process per
    CPU; results are independent of the partitioning.
    """
    num = config.num_pairs
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    per = -(-num // threads)
    los = range(0, num, per)
    his = [min(lo + per, num) for lo in los]
    if len(los) == 1:
        parts = [_compute_pairs(config, 0, num)]
    else:
        workers = min(threads, len(los), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_compute_pairs, repeat(config), los, his))
    rows = np.concatenate([p[0] for p in parts])
    signed = np.concatenate([p[1] for p in parts])

    undefined = np.isnan(rows).any(axis=1)
    if config.undefined_policy == "fail" and undefined.any():
        i = int(undefined.argmax())  # the first undefined pair, rebuilt from its seed
        rng = _pair_generator(config.seed, i)
        f1, f2 = _draw_member(config, rng), _draw_member(config, rng)
        raise UndefinedMeasureError(i, f1.counts, f2.counts, compare_all(f1, f2).undefined_flags)

    series = {name: rows[:, j].copy() for j, name in enumerate(MEASURE_NAMES)}
    summaries: dict[tuple[str, str], RegressionSummary] = {}
    for x in MEASURE_NAMES:
        for y in MEASURE_NAMES:
            xs, ys = series[x], series[y]
            mask = np.isfinite(xs) & np.isfinite(ys)
            kept = int(mask.sum())
            if kept < 2:
                summaries[(x, y)] = RegressionSummary(0.0, 0.0, kept, num - kept, degenerate=True)
                continue
            fit = fit_through_origin(xs[mask], ys[mask])
            summaries[(x, y)] = replace(fit, dropped_count=num - kept)
    return CorrelationTable(
        config=config,
        measure_names=MEASURE_NAMES,
        summaries=summaries,
        series=series,
        signed_rds=signed,
    )


def _compute_pairs(config: ExperimentConfig, lo: int, hi: int):
    """Measure rows (NaN where a value is undefined) and signed RDS for pairs lo..hi-1."""
    rows = np.empty((hi - lo, len(MEASURE_NAMES)), dtype=np.float64)
    signed = np.empty(hi - lo, dtype=np.float64)
    for i in range(lo, hi):
        rng = _pair_generator(config.seed, i)
        report = compare_all(_draw_member(config, rng), _draw_member(config, rng))
        signed[i - lo] = report.rds
        values = (report.value(name) for name in MEASURE_NAMES)
        rows[i - lo] = [np.nan if v is None else v for v in values]
    return rows, signed


def fit_through_origin(xs, ys) -> RegressionSummary:
    """Least-squares line constrained to pass through the origin.

    r_squared here is the squared cosine similarity (Σxy)² / (Σx² Σy²),
    the share of the response captured by a pure proportionality; it is
    symmetric in the two series and equals 1 exactly when ys is a scalar
    multiple of xs. An all-zero series yields a degenerate summary.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValidationError("series must be 1-D and of equal length")
    if len(xs) < 2:
        raise ValidationError(f"need at least 2 points, got {len(xs)}")
    sxx = float(xs @ xs)
    syy = float(ys @ ys)
    sxy = float(xs @ ys)
    if sxx <= 0.0 or syy <= 0.0:
        return RegressionSummary(0.0, 0.0, len(xs), degenerate=True)
    slope = sxy / sxx
    r_squared = min(sxy * sxy / (sxx * syy), 1.0)
    return RegressionSummary(slope, r_squared, len(xs))


def export_fork_data(table: CorrelationTable, measure: str) -> list[tuple[float | None, float]]:
    """Per-pair (measure value, signed RDS) rows for fork-style scatters.

    Undefined measure values come back as None; no rows are aggregated
    or dropped.
    """
    if measure not in table.measure_names:
        raise ValueError(
            f"unknown measure {measure!r}; expected one of {list(table.measure_names)}"
        )
    values = table.series[measure]
    return [
        (None if math.isnan(v) else float(v), float(r))
        for v, r in zip(values, table.signed_rds)
    ]
