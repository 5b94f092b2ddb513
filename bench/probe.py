"""The layer probe of a traced run: a fixed set of calls, the same for
every workload, that gives each per-layer metric a value.

Every call is recorded as a span. Where a metric needs a phase that has
no public function (growth and dedup, witness search, hash-lane
confirmation), it is found from outside as a difference of two audits.
"""
from __future__ import annotations

import statistics
from fractions import Fraction

from distshift import (
    ExperimentConfig,
    FrequencyDistribution,
    audit_uniqueness,
    audit_uniqueness_default,
    compare_all,
    ds,
    parse_distributions,
    rds,
    run_experiment,
)

from workloads import EXPERIMENT_PATCHES

AUDIT_N, AUDIT_K = 60, 5
AUDIT_REPEATS = 3
SCALAR_PASSES = 3


def run_probe(tracer, seed: int, blocks) -> dict[str, float]:
    out: dict[str, float] = {}
    out.update(_experiments(tracer, seed))
    out.update(_audits(tracer))
    out.update(_scalar(tracer, blocks))
    return out


def _experiments(tracer, seed):
    configs = [ExperimentConfig("feasible_set", 100, 5, 10_000, seed),
               ExperimentConfig("poisson", 100, 5, 10_000, seed, lam=5.0)]
    # whole operations first, with no spans inside them
    times = {1: [], 2: []}
    for threads in (1, 2):
        for cfg in configs:
            _, dt = tracer.call("probe.run_experiment",
                                lambda: run_experiment(cfg, threads=threads),
                                counts={"threads": threads, "source": cfg.source})
            times[threads].append(dt)
    # then again with a span around every call experiments makes into a layer
    pairs = dropped_chi = dropped_kl = 0
    with tracer.patched(EXPERIMENT_PATCHES):
        for cfg in configs:
            table, _ = tracer.call("experiments.run_experiment",
                                   lambda: run_experiment(cfg, threads=1),
                                   counts={"source": cfg.source})
            pairs += len(table.signed_rds)
            dropped_chi += table.summaries[("abs_rds", "chi_square")].dropped_count
            dropped_kl += table.summaries[("abs_rds", "kl_sqrt")].dropped_count
    fit_s, _, _ = tracer.total("experiments.fit_through_origin")
    return {
        "experiments.run_s": statistics.mean(times[1]),
        "experiments.run_threads2_s": statistics.mean(times[2]),
        "experiments.fit_s": fit_s / len(configs),
        "experiments.sample_poisson_us": _per_call_us(tracer, "experiments.sample_poisson_distribution"),
        "feasible.sample_uniform_us": _per_call_us(tracer, "feasible.sample_uniform"),
        "experiments.pairs": pairs,
        "experiments.dropped_chi_square": dropped_chi,
        "experiments.dropped_kl_sqrt": dropped_kl,
    }


def _audits(tracer):
    n, k = AUDIT_N, AUDIT_K
    calls = {
        "z2": ("feasible.audit_uniqueness", lambda: audit_uniqueness(n, k, 2)),
        "z2_no_witness": ("feasible.audit_uniqueness",
                          lambda: audit_uniqueness(n, k, 2, max_collisions=0)),
        "z3/2": ("feasible.audit_uniqueness", lambda: audit_uniqueness(n, k, Fraction(3, 2))),
        "default": ("feasible.audit_uniqueness_default", lambda: audit_uniqueness_default(n, k)),
    }
    times = {label: [] for label in calls}
    reports = {}
    for _ in range(AUDIT_REPEATS):
        for label, (name, fn) in calls.items():
            reports[label], dt = tracer.call(name, fn, counts={"case": label})
            times[label].append(dt)
    t = {label: statistics.median(v) for label, v in times.items()}
    return {
        "feasible.grow_dedup_s": t["z2_no_witness"],
        "feasible.witness_s": t["z2"] - t["z2_no_witness"],
        "feasible.confirm_s": t["z3/2"] - t["default"],
        "feasible.members": sum(r.total for r in reports.values()),
        "feasible.unique_values": sum(r.unique_values for r in reports.values()),
        "feasible.collision_values": sum(r.collision_count for r in reports.values()),
    }


def _scalar(tracer, blocks):
    # the experiment spans above also call compare_all: count only these
    since = len(tracer.names)
    for _ in range(SCALAR_PASSES):
        undefined_chi = undefined_kl = 0
        for text, counts in blocks:
            dists, _ = tracer.call("distributions.parse_distributions",
                                   lambda: parse_distributions(text), calls=len(counts))
            tracer.call("distributions.FrequencyDistribution",
                        lambda: [FrequencyDistribution(c) for c in counts], calls=len(counts))
            tracer.call("shift.ds", lambda: [ds(f) for f in dists], calls=len(dists))
            pairs = list(zip(dists[0::2], dists[1::2]))
            tracer.call("shift.rds", lambda: [rds(a, b) for a, b in pairs], calls=len(pairs))
            reports, _ = tracer.call("measures.compare_all",
                                     lambda: [compare_all(a, b) for a, b in pairs],
                                     calls=len(pairs))
            undefined_chi += sum(r.chi_square is None for r in reports)
            undefined_kl += sum(r.kl_sqrt is None for r in reports)
    return {
        "distributions.parse_us": _per_call_us(tracer, "distributions.parse_distributions", since),
        "distributions.construct_us":
            _per_call_us(tracer, "distributions.FrequencyDistribution", since),
        "shift.ds_us": _per_call_us(tracer, "shift.ds", since),
        "shift.rds_us": _per_call_us(tracer, "shift.rds", since),
        "measures.compare_all_us": _per_call_us(tracer, "measures.compare_all", since),
        "measures.undefined_chi_square": undefined_chi,
        "measures.undefined_kl": undefined_kl,
    }


def _per_call_us(tracer, name, since=0) -> float:
    seconds, calls, _ = tracer.total(name, since)
    return seconds / calls * 1e6
