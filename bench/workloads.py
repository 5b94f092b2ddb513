"""The benchmark's workloads: inputs made from the seed, the timed
operations, and how each output is checked.

A workload yields rounds of operations. Every round of a workload runs
the same kinds of operation in the same order, so the share of failed
operations is the same in every run. Operations that share a ``key`` run
the same input; the runner checks the first output of each key against
the independent oracles in checks.py and requires every later output of
that key to be identical to it.
"""
from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import distshift.experiments as experiments_module
from distshift import (
    ExperimentConfig,
    audit_uniqueness,
    audit_uniqueness_default,
    compare_all,
    ds,
    parse_distributions,
    rds,
    run_experiment,
)

import checks

#: Collision records and witnesses per record the audits ask for (the API defaults).
MAX_COLLISIONS = 20
WITNESSES = 4


@dataclass
class Op:
    key: object
    items: int
    fn: Callable[[], object]


class Workload:
    name = ""
    #: Keys of operations that fail every time because of a known fault in
    #: the program; they count as failed without making the run incorrect.
    known_faults: frozenset = frozenset()
    #: How a run sums up the times one operation took: the median, or the
    #: fastest where operations last milliseconds and repeat hundreds of
    #: times (bench/README.md, "Spread and bounds").
    op_time: Callable = staticmethod(statistics.median)

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def summarize(self, key, result):
        """Compact, comparable form of one output, made outside the timed region."""
        return result

    def same(self, a, b) -> bool:
        return a == b

    def check(self, key, summary) -> list[str]:
        raise NotImplementedError

    def patches(self) -> list:
        """(module, attribute, span name, call-count function or None) to
        wrap in traced rounds."""
        raise NotImplementedError


def _this():
    return sys.modules[__name__]


# ------------------------------------------------------------ experiment


class Experiment(Workload):
    """The paper's correlation study: n=100, k=5, 10^4 pairs per operation,
    alternating feasible-set and Poisson(5) sources, seeds drawn from the
    workload seed. Sampling, the per-pair measures and the 49 fits do all
    the work; no audit code runs."""

    name = "experiment"
    N, K, PAIRS, LAM = 100, 5, 10_000, 5.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self._rng = np.random.default_rng(seed)
        self._ops = 0

    def warm_up(self) -> None:
        run_experiment(ExperimentConfig("feasible_set", 20, 4, 64, self.seed))
        run_experiment(ExperimentConfig("poisson", 20, 4, 64, self.seed, lam=self.LAM))

    def round(self) -> list[Op]:
        ops = []
        for source in ("feasible_set", "poisson"):
            cfg = ExperimentConfig(source, self.N, self.K, self.PAIRS,
                                   int(self._rng.integers(2**63)),
                                   lam=self.LAM if source == "poisson" else None)
            self._ops += 1
            ops.append(Op((source, self._ops), self.PAIRS,
                          lambda cfg=cfg: _experiment(cfg)))
        return ops

    def summarize(self, key, table):
        # checked at once so that no table outlives its operation
        names = checks.SERIES
        cell = table.summaries
        r2 = np.array([[cell[(x, y)].r_squared for y in names] for x in names])
        kept = np.array([[cell[(x, y)].sample_count for y in names] for x in names])
        dropped = np.array([[cell[(x, y)].dropped_count for y in names] for x in names])
        return tuple(checks.check_experiment(
            table.config.num_pairs, r2, kept, dropped,
            {x: table.series[x] for x in names}, key[0] == "feasible_set"))

    def check(self, key, summary) -> list[str]:
        return list(summary)

    def patches(self) -> list:
        return EXPERIMENT_PATCHES + [
            (_this(), "run_experiment", "experiments.run_experiment", None)]


#: The calls experiments makes into other layers' public functions, and
#: the fit, as the experiments module sees them.
EXPERIMENT_PATCHES = [
    (experiments_module, "sample_uniform", "feasible.sample_uniform", None),
    (experiments_module, "sample_poisson_distribution",
     "experiments.sample_poisson_distribution", None),
    (experiments_module, "compare_all", "measures.compare_all", None),
    (experiments_module, "fit_through_origin", "experiments.fit_through_origin", None),
]


def _experiment(cfg):
    return run_experiment(cfg, threads=1)


# ----------------------------------------------------------------- audits


class Audits(Workload):
    """A fixed list of audits; the seed does not change them."""

    #: (n, k, z as passed to the program, exact z, size of the independent count)
    configs: list = []

    def round(self) -> list[Op]:
        return [Op(cfg[:3], math.comb(cfg[0] + cfg[1] - 1, cfg[1] - 1),
                   lambda cfg=cfg: _audit(*cfg[:3]))
                for cfg in self.configs]

    def check(self, key, report) -> list[str]:
        n, k, z, exact_z, count_n = next(c for c in self.configs if c[:3] == key)
        if count_n == n:
            return checks.check_audit(n, k, exact_z, report, MAX_COLLISIONS, WITNESSES,
                                      checks.count_distinct(n, k, exact_z))
        errors = checks.check_audit(n, k, exact_z, report, MAX_COLLISIONS, WITNESSES, None)
        # the full-size count would dominate the run: count a smaller set exactly
        small = _audit(count_n, k, z)
        errors += [f"at n={count_n}: {e}" for e in checks.check_audit(
            count_n, k, exact_z, small, MAX_COLLISIONS, WITNESSES,
            checks.count_distinct(count_n, k, exact_z))]
        return errors

    def patches(self) -> list:
        return [(_this(), "audit_uniqueness", "feasible.audit_uniqueness", None),
                (_this(), "audit_uniqueness_default", "feasible.audit_uniqueness_default", None)]


def _audit(n, k, z):
    if z is None:
        return audit_uniqueness_default(n, k)
    return audit_uniqueness(n, k, z)


class AuditDefault(Audits):
    """Exact audits at the default exponent over 1.4M-10.3M members. They
    have no collisions, so the time goes to the radical decomposition,
    hashing, growth and dedup, and witness search never runs."""

    name = "audit-default"
    configs = [
        (200, 4, None, Fraction(5, 4), 50),
        (100, 5, None, Fraction(6, 5), 30),
        (60, 6, None, Fraction(7, 6), 20),
        (30, 8, None, Fraction(9, 8), 12),
    ]

    def warm_up(self) -> None:
        audit_uniqueness_default(12, 4)


class AuditCollide(Audits):
    """Exact audits with many collisions at z=2 (int64 path) and z=3/2
    (hash-lane path), where witness search and confirmation dominate, and
    the (400, 3, 7.0) audit that fails."""

    name = "audit-collide"
    configs = [
        (60, 5, 2, Fraction(2), 60),
        (60, 5, Fraction(3, 2), Fraction(3, 2), 60),
        (80, 5, 2, Fraction(2), 80),
        # integer-valued float exponent: the program takes the float-tolerance
        # path and miscounts, so this operation fails every time
        (400, 3, 7.0, Fraction(7), 400),
    ]
    known_faults = frozenset({(400, 3, 7.0)})

    def warm_up(self) -> None:
        audit_uniqueness(12, 4, 2)
        audit_uniqueness(12, 4, Fraction(3, 2))
        audit_uniqueness(12, 3, 2.5)


# ----------------------------------------------------------------- scalar


SCALAR_BLOCKS = 16
SCALAR_PAIRS = 64
SCALAR_KS = (3, 4, 5, 6, 8, 10)


def scalar_inputs(seed: int):
    """SCALAR_BLOCKS CSV blocks of SCALAR_PAIRS distribution pairs, each
    pair sharing one k drawn from SCALAR_KS and each side holding 1 to 300
    observations.

    Every bin is empty with probability 0.1, so pairs with bins empty on
    both sides (undefined chi-square and KL) and one-sided empty bins
    (undefined KL) are common.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(SCALAR_BLOCKS):
        counts = []
        for _ in range(SCALAR_PAIRS):
            k = int(rng.choice(SCALAR_KS))
            for _ in range(2):
                live = rng.random(k) >= 0.1
                live[rng.integers(k)] = True
                probs = np.where(live, rng.dirichlet(np.ones(k)), 0.0)
                n = int(rng.integers(1, 301))
                c = rng.multinomial(n, probs / probs.sum())
                counts.append(tuple(int(x) for x in c))
        text = "\n".join(",".join(map(str, c)) for c in counts) + "\n"
        out.append((text, counts))
    return out


def _ds_all(dists):
    return [ds(f).ds for f in dists]


def _rds_all(pairs):
    return [rds(a, b) for a, b in pairs]


def _compare_all_all(pairs):
    return [compare_all(a, b) for a, b in pairs]


def score_block(text: str):
    """One caller scoring their own histograms: parse, then DS, RDS and all measures."""
    dists = parse_distributions(text)
    shifts = _ds_all(dists)
    pairs = list(zip(dists[0::2], dists[1::2]))
    return dists, shifts, _rds_all(pairs), _compare_all_all(pairs)


class Scalar(Workload):
    """A caller scoring their own histograms one call at a time: parse a
    CSV block, then ds, rds and compare_all on each pair."""

    name = "scalar"
    op_time = staticmethod(min)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.blocks = scalar_inputs(seed)

    def warm_up(self) -> None:
        score_block("1,0,2\n0,3,1\n")

    def round(self) -> list[Op]:
        return [Op(i, SCALAR_PAIRS, lambda text=text: score_block(text))
                for i, (text, _) in enumerate(self.blocks)]

    def summarize(self, key, result):
        dists, shifts, rel, reports = result
        rows = np.array([
            [shifts[2 * i], shifts[2 * i + 1], rel[i], r.rds, r.abs_rds,
             np.nan if r.chi_square is None else r.chi_square, r.ks,
             np.nan if r.kl_sqrt is None else r.kl_sqrt,
             r.non_intersection, r.emd, r.rps_sqrt]
            for i, r in enumerate(reports)
        ])
        return [d.counts for d in dists], rows

    def same(self, a, b) -> bool:
        return a[0] == b[0] and np.array_equal(a[1], b[1], equal_nan=True)

    def check(self, key, summary) -> list[str]:
        return checks.check_scalar(self.blocks[key][1], *summary)

    def patches(self) -> list:
        return [
            (_this(), "parse_distributions", "distributions.parse_distributions", len),
            (_this(), "_ds_all", "shift.ds", len),
            (_this(), "_rds_all", "shift.rds", len),
            (_this(), "_compare_all_all", "measures.compare_all", len),
        ]


WORKLOADS = {w.name: w for w in (Experiment, AuditDefault, AuditCollide, Scalar)}
