"""Independent reference computations used as oracles by the tests.

Nothing here imports from distshift's internals beyond public types, and
every function recomputes its answer from first principles (linear
programming, closed-form pmfs, plain big-integer arithmetic), so a bug
in the library cannot hide inside its own oracle.
"""
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linprog


def transport_emd(p1, p2) -> float:
    """Minimum-cost transport between two histograms with cost |i - j|.

    Solves the full transportation linear program over all k*k flows
    instead of using any cumulative shortcut.
    """
    k = len(p1)
    cost = np.abs(np.subtract.outer(np.arange(k), np.arange(k))).ravel().astype(float)
    a_eq = []
    for i in range(k):  # row sums: mass leaving bin i
        row = np.zeros((k, k))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(k):  # column sums: mass arriving at bin j
        col = np.zeros((k, k))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
    b_eq = np.concatenate([p1, p2])
    result = linprog(cost, A_eq=np.array(a_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert result.success, result.message
    return float(result.fun)


def truncated_poisson_pmf(lam: float, k: int) -> np.ndarray:
    """pmf of Poisson(lam) conditioned on values in 0..k-1."""
    values = np.arange(k)
    log_pmf = -lam + values * np.log(lam) - np.array(
        [float(np.sum(np.log(np.arange(1, v + 1)))) for v in values]
    )
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def ds_fraction(totals, z: int) -> Fraction:
    """Exact rational DS for an integer exponent, straight from the formula."""
    n = totals[-1]
    k = len(totals)
    total = sum(Fraction(t, n) ** z for t in totals)
    return (total - 1) / (k - 1)


def compositions(n: int, k: int):
    """All k-part compositions of n, in no particular order."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def exact_sum_classes(n: int, k: int, z) -> list[list[tuple[int, ...]]]:
    """The cumulative forms of A(n, k), grouped by the exact value of
    sum(F_i**z), each group in lexicographic order.

    Each term t**(p/q) is split by trial division into u * v**(1/q),
    with v free of q-th powers and named by its prime exponents. Such
    radicals are linearly independent over the rationals (Besicovitch),
    so the integer coefficient on each radical is the exact value.
    """
    z = Fraction(z)
    p, q = z.numerator, z.denominator

    def term(t):
        u, radical, prime = 1, [], 2
        while t > 1:
            e = 0
            while t % prime == 0:
                t //= prime
                e += 1
            whole, rem = divmod(e * p, q)
            u *= prime**whole
            if rem:
                radical.append((prime, rem))
            prime += 1
        return u, tuple(radical)

    terms = [(0, ())] + [term(t) for t in range(1, n + 1)]
    classes: dict[frozenset, list[tuple[int, ...]]] = {}
    for prefix in combinations_with_replacement(range(n + 1), k - 1):
        form = prefix + (n,)
        coeffs: dict[tuple, int] = {}
        for t in form:
            u, radical = terms[t]
            coeffs[radical] = coeffs.get(radical, 0) + u
        key = frozenset((r, c) for r, c in coeffs.items() if c)
        classes.setdefault(key, []).append(form)
    return list(classes.values())
