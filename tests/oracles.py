"""Independent reference computations used as oracles by the tests.

Nothing here imports from distshift's internals beyond public types, and
every function recomputes its answer from first principles (linear
programming, assignment, closed-form pmfs, plain big-integer arithmetic,
row-by-row sampling), so a bug in the library cannot hide inside its own
oracle.
"""
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog


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


def assignment_emd(c1, c2) -> float:
    """Minimum-cost transport between two count vectors of equal total n
    with cost |i - j|, as a min-cost assignment of unit atoms.

    Each side is expanded into n unit atoms at their bins; with equal
    masses an optimal transport plan is a permutation (Birkhoff-von
    Neumann), so the assignment optimum divided by n is the EMD of the
    normalized histograms. No cumulative shortcut is used.
    """
    atoms1 = np.repeat(np.arange(len(c1)), c1)
    atoms2 = np.repeat(np.arange(len(c2)), c2)
    assert len(atoms1) == len(atoms2), "assignment_emd needs equal totals"
    cost = np.abs(np.subtract.outer(atoms1, atoms2))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / len(atoms1)


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


def floyd_uniform_members(n: int, k: int, seed, size: int) -> np.ndarray:
    """``size`` uniform members of A(n, k) as a (size, k) array, drawn
    row-major: Floyd's algorithm picks each row's k-1 separators among
    the n+k-1 slots from ``size`` draws per separator, in the same order
    of ``rng.integers`` calls as ``sample_uniform``, then each row is
    sorted on its own and its gaps are read as counts."""
    rng = np.random.default_rng(seed)
    slots = n + k - 1
    chosen = np.empty((size, k + 1), dtype=np.int64)
    chosen[:, 0], chosen[:, k] = -1, slots
    for col, j in enumerate(range(n, slots), start=1):
        t = rng.integers(0, j + 1, size=size)
        taken = (chosen[:, 1:col] == t[:, None]).any(axis=1)
        chosen[:, col] = np.where(taken, j, t)
    chosen[:, 1:k].sort(axis=1)
    return np.diff(chosen, axis=1) - 1


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
