"""Correctness checks that compute apart from the program.

Nothing here calls into distshift: every expected value is recomputed
from the inputs with plain numpy, scipy, Python integers or an exact
radical decomposition. Each checker returns a list of error strings; an
empty list means the output passed. The benchmark runs these outside
its timed region.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

#: Series order of the experiment tables, as the paper presents them.
SERIES = ("abs_rds", "chi_square", "non_intersection", "kl_sqrt", "ks", "emd", "rps_sqrt")
#: Columns of one scored pair in the scalar workload.
SCALAR_COLUMNS = ("ds1", "ds2", "rds", "report_rds", "abs_rds", "chi_square", "ks",
                  "kl_sqrt", "non_intersection", "emd", "rps_sqrt")
#: Published band for r^2(|RDS|, EMD) over uniform feasible-set pairs.
FEASIBLE_EMD_BAND = (0.86, 0.96)

RTOL = 1e-9
ATOL = 1e-12


# ---------------------------------------------------------------- scalar


def ds_oracle(counts: np.ndarray) -> float:
    """DS with the default exponent z = (k+1)/k, straight from the formula."""
    k = len(counts)
    F = np.cumsum(counts) / counts.sum()
    return float(((F ** ((k + 1) / k)).sum() - 1.0) / (k - 1))


def scalar_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Expected SCALAR_COLUMNS for one pair; NaN marks an undefined measure."""
    from scipy.special import rel_entr
    from scipy.stats import wasserstein_distance

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p, q = a / a.sum(), b / b.sum()
    P, Q = np.cumsum(a) / a.sum(), np.cumsum(b) / b.sum()
    both_empty = bool(((a == 0) & (b == 0)).any())
    ds1, ds2 = ds_oracle(a), ds_oracle(b)
    rds = ds2 - ds1
    if both_empty:
        chi = kl_sqrt = math.nan
    else:
        chi = 0.5 * float(((p - q) ** 2 / (p + q)).sum())
        kl = float(rel_entr(p, q).sum())
        kl_sqrt = math.nan if math.isinf(kl) else math.sqrt(max(kl, 0.0))
    bins = np.arange(len(a))
    return np.array([
        ds1, ds2, rds, rds, abs(rds), chi,
        float(np.abs(P - Q).max()),
        kl_sqrt,
        1.0 - float(np.minimum(p, q).sum()),
        float(wasserstein_distance(bins, bins, p, q)),
        math.sqrt(float(((P - Q) ** 2).sum())),
    ])


def check_scalar(counts: list[tuple[int, ...]], parsed: list[tuple[int, ...]],
                 outputs: np.ndarray) -> list[str]:
    """Compare one parsed CSV block and its scored pairs against the oracle.

    ``counts`` are the generated distributions, ``parsed`` what the program
    parsed back, ``outputs`` one SCALAR_COLUMNS row per consecutive pair.
    """
    errors = []
    if parsed != counts:
        errors.append("parsed counts differ from the generated block")
    for i in range(len(counts) // 2):
        want = scalar_oracle(np.array(counts[2 * i]), np.array(counts[2 * i + 1]))
        got = outputs[i]
        if not np.array_equal(np.isnan(want), np.isnan(got)):
            errors.append(f"pair {i}: undefined measures differ: want {want}, got {got}")
        elif not np.allclose(got, want, rtol=RTOL, atol=ATOL, equal_nan=True):
            bad = [c for c, w, g in zip(SCALAR_COLUMNS, want, got)
                   if not math.isclose(g, w, rel_tol=RTOL, abs_tol=ATOL) and not math.isnan(w)]
            errors.append(f"pair {i}: {bad} differ: want {want}, got {got}")
    return errors


# ------------------------------------------------------------ experiment


def check_experiment(num_pairs: int, r2: np.ndarray, sample_counts: np.ndarray,
                     dropped_counts: np.ndarray, series: dict[str, np.ndarray],
                     feasible: bool) -> list[str]:
    """Properties any correct correlation run has, whatever its random stream.

    ``r2``, ``sample_counts`` and ``dropped_counts`` are SERIES x SERIES
    matrices; ``series`` maps each name to its per-pair values, NaN where
    undefined.
    """
    errors = []
    tol = 1e-12
    if not np.allclose(r2, r2.T, rtol=0, atol=1e-12):
        errors.append("r^2 matrix is not symmetric")
    if not np.allclose(np.diag(r2), 1.0, rtol=0, atol=1e-12):
        errors.append(f"r^2 diagonal is not 1: {np.diag(r2)}")
    if not ((r2 >= 0.0) & (r2 <= 1.0)).all():
        errors.append("r^2 value outside [0, 1]")
    if not (sample_counts + dropped_counts == num_pairs).all():
        errors.append("sample and dropped counts do not add up to the pair count")
    for name in SERIES:
        if len(series[name]) != num_pairs:
            errors.append(f"series {name} has {len(series[name])} values, want {num_pairs}")
            return errors
    for i, x in enumerate(SERIES):
        for j, y in enumerate(SERIES):
            xs, ys = series[x], series[y]
            mask = np.isfinite(xs) & np.isfinite(ys)
            if int(mask.sum()) != sample_counts[i, j]:
                errors.append(f"sample count of ({x}, {y}) disagrees with its series")
                continue
            xs, ys = xs[mask], ys[mask]
            want = float(np.dot(xs, ys)) ** 2 / (float(np.dot(xs, xs)) * float(np.dot(ys, ys)))
            if not math.isclose(r2[i, j], want, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"r^2({x}, {y}) = {r2[i, j]} does not recompute ({want})")
    s = series
    ni = s["non_intersection"]
    chi_ok = np.isfinite(s["chi_square"])
    kl_ok = np.isfinite(s["kl_sqrt"])
    inequalities = {
        "ks <= emd": s["ks"] <= s["emd"] + tol,
        "chi_square <= non_intersection": s["chi_square"][chi_ok] <= ni[chi_ok] + tol,
        "non_intersection <= emd": ni <= s["emd"] + tol,
        "rps_sqrt^2 <= ks*emd": s["rps_sqrt"] ** 2 <= s["ks"] * s["emd"] + tol,
        "kl_sqrt >= sqrt(2)*non_intersection (Pinsker)":
            s["kl_sqrt"][kl_ok] >= math.sqrt(2.0) * ni[kl_ok] - tol,
        "abs_rds in [0, 1]": (s["abs_rds"] >= 0) & (s["abs_rds"] <= 1),
    }
    for label, ok in inequalities.items():
        if not ok.all():
            errors.append(f"{label} fails on {int((~ok).sum())} pairs")
    if feasible:
        lo, hi = FEASIBLE_EMD_BAND
        value = r2[SERIES.index("abs_rds"), SERIES.index("emd")]
        if not lo <= value <= hi:
            errors.append(f"feasible r^2(abs_rds, emd) = {value:.4f} outside [{lo}, {hi}]")
    return errors


# ----------------------------------------------------------------- audits


def cumulative_forms(n: int, k: int) -> np.ndarray:
    """Every member of A(n, k) as a cumulative form, one row each.

    Stars and bars: a sorted (k-1)-subset c of {0, ..., n+k-2} gives the
    nondecreasing prefix c_i - i; the last entry is always n.
    """
    m = math.comb(n + k - 1, k - 1)
    flat = np.fromiter(chain.from_iterable(combinations(range(n + k - 1), k - 1)),
                       dtype=np.int64, count=m * (k - 1))
    head = flat.reshape(m, k - 1) - np.arange(k - 1)
    return np.hstack([head, np.full((m, 1), n, dtype=np.int64)])


def _power_parts(t: int, p: int, q: int) -> tuple[int, int]:
    """t**(p/q) = u * v**(1/q) with v free of q-th powers, by trial division."""
    u = v = 1
    m, d = t, 2
    while m > 1:
        if d * d > m:
            d = m
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        whole, rem = divmod(e * p, q)
        u *= d**whole
        v *= d**rem
        d += 1
    return u, v


def exact_value(form, z: Fraction) -> tuple[tuple[int, int], ...]:
    """sum(F_i**z) as its coefficients over radicals v**(1/q).

    Radicals v**(1/q) with distinct q-th-power-free v are linearly
    independent over the rationals (Besicovitch 1940), so two sums are
    equal exactly when these coefficient tuples are. The common factor
    n**-z is left out.
    """
    coeff: dict[int, int] = {}
    for t in form:
        t = int(t)
        if t:
            u, v = _power_parts(t, z.numerator, z.denominator)
            coeff[v] = coeff.get(v, 0) + u
    return tuple(sorted(coeff.items()))


def count_distinct(n: int, k: int, z: Fraction) -> tuple[int, int]:
    """(distinct values, values shared by two or more members) of
    sum(F_i**z) over A(n, k), decided exactly.

    Integer z sums exactly in int64 when it cannot overflow and in Python
    integers otherwise. Rational z sorts float64 sums, and members whose
    sums lie within 1e-9 relative of a neighbour are regrouped by their
    exact radical coefficients; equal exact sums always land that close.
    """
    forms = cumulative_forms(n, k)
    if z.denominator == 1:
        p = z.numerator
        if k * n**p < 2**63:
            sums = (forms**p).sum(axis=1)
        else:
            sums = np.array([sum(int(t) ** p for t in row) for row in forms.tolist()], dtype=object)
        _, mult = np.unique(sums, return_counts=True)
        return len(mult), int((mult >= 2).sum())
    sums = ((forms / n) ** float(z)).sum(axis=1)
    order = np.argsort(sums, kind="stable")
    ordered = sums[order]
    close = np.diff(ordered) <= 1e-9 * ordered[1:]
    starts = np.flatnonzero(np.concatenate(([True], ~close)))
    sizes = np.diff(np.concatenate((starts, [len(ordered)])))
    unique = int((sizes == 1).sum())
    shared = 0
    for start, size in zip(starts[sizes > 1], sizes[sizes > 1]):
        groups: dict = {}
        for idx in order[start:start + size]:
            key = exact_value(forms[idx], z)
            groups[key] = groups.get(key, 0) + 1
        unique += len(groups)
        shared += sum(1 for c in groups.values() if c >= 2)
    return unique, shared


def check_audit(n: int, k: int, z: Fraction, report, max_collisions: int,
                witnesses_per_value: int, expected: tuple[int, int] | None) -> list[str]:
    """Check one uniqueness report.

    ``expected`` is (distinct values, shared values) from count_distinct at
    this size, or None where that count is made at a smaller size instead.
    """
    errors = []
    total = math.comb(n + k - 1, k - 1)
    if report.total != total:
        errors.append(f"total {report.total} != C(n+k-1, k-1) = {total}")
    if expected is not None:
        unique, shared = expected
        if report.unique_values != unique:
            errors.append(f"unique_values {report.unique_values} != independent count {unique}")
        if report.collision_count != shared:
            errors.append(f"collision_count {report.collision_count} != independent count {shared}")
    if not 1 <= report.unique_values <= total:
        errors.append(f"unique_values {report.unique_values} outside [1, {total}]")
    if (report.collision_count == 0) != (report.unique_values == total):
        errors.append("collision_count and unique_values disagree on full uniqueness")
    if len(report.collisions) != min(report.collision_count, max_collisions):
        errors.append(f"{len(report.collisions)} collision records for "
                      f"{report.collision_count} collisions (cap {max_collisions})")
    for rec in report.collisions:
        errors += check_witnesses(n, k, z, rec.count, rec.members, witnesses_per_value)
    return errors


def check_witnesses(n: int, k: int, z: Fraction, count: int, members,
                    witnesses_per_value: int) -> list[str]:
    """A witness group holds distinct valid forms whose sums are exactly equal."""
    forms = [tuple(m) for m in members]
    if count < 2 or not 2 <= len(forms) <= min(count, witnesses_per_value):
        return [f"witness group of {len(forms)} forms for a value shared {count} times"]
    if len(set(forms)) != len(forms):
        return [f"witness group repeats a form: {forms}"]
    for f in forms:
        valid = (len(f) == k and f[-1] == n and f[0] >= 0
                 and all(a <= b for a, b in zip(f, f[1:])))
        if not valid:
            return [f"witness {f} is not a cumulative form of A({n}, {k})"]
    values = {exact_value(f, z) for f in forms}
    if len(values) != 1:
        return [f"witnesses {forms} do not share one exact value at z={z}"]
    return []
