"""Feasible-set machinery: the set A(n, k) of all frequency distributions
placing n observations into k ordered bins.

Provides exact cardinality (stars and bars), streaming lexicographic
enumeration over cumulative forms, unbiased uniform sampling, and the
uniqueness audit that checks whether the exponentiated cumulative sums
sum((F_i/n)**z) separate every member of a feasible set.

Every audit is exact. The exponent, an int, a float or a Fraction, is
taken as the rational p/q it names (a finite float is exactly one; an
integer is the case q = 1). Each term t**(p/q) is u * v**(1/q) with v
free of q-th powers; distinct such radicals are linearly independent
over the rationals, so two sums are equal exactly when their integer
coefficients agree radical by radical. One uint64 hash of those
coefficients, each reduced modulo a prime above every n so that no term
hashes to 0, finds the candidate collisions. For integer z with
k * n**z < 2**64 the hash is the exact sum and candidates are
collisions; otherwise each candidate group is regrouped by its exact
coefficients before anything is reported.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .distributions import FrequencyDistribution, ValidationError

#: Default ceiling on feasible-set size for enumeration and audits.
DEFAULT_CAP = 20_000_000
#: Cumulative forms an audit reports per collision record.
WITNESSES_PER_VALUE = 4

_HASH_MASK = (1 << 64) - 1
#: The largest prime below 2**64. Coefficients are reduced modulo it
#: before hashing; their prime factors are at most n, so none reduces to 0.
_HASH_PRIME = 2**64 - 59
#: Fixed entropy so exact audits hash identically run to run.
_AUDIT_ENTROPY = 0x1BD49A56F0C3
#: Members looked up per step when finding the members of shared hashes.
_LOOKUP_CHUNK = 1 << 18
#: Largest exact coefficient, in bits, an exact audit may build: the
#: biggest, n**(p//q), has about (p // q) * log2(n) bits.
MAX_COEFFICIENT_BITS = 1 << 16


class CapExceededError(ValidationError):
    """Feasible set too large to enumerate; carries the exact cardinality."""

    def __init__(self, n: int, k: int, cardinality: int, cap: int):
        super().__init__(
            f"feasible set A(n={n}, k={k}) has {cardinality} members, "
            f"exceeding the cap of {cap}"
        )
        self.cardinality = cardinality
        self.cap = cap


def _validate_nk(n: int, k: int) -> None:
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    if k < 2:
        raise ValidationError(f"k must be at least 2, got {k}")


def cardinality(n: int, k: int) -> int:
    """Exact number of members of A(n, k): C(n + k - 1, k - 1)."""
    _validate_nk(n, k)
    return math.comb(n + k - 1, k - 1)


def _cumulative_forms(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield cumulative forms of A(n, k) in lexicographic order.

    A cumulative form is a nondecreasing k-tuple over 0..n whose last
    entry is n. The successor of a form increments the rightmost free
    position and levels everything after it.
    """
    head = [0] * (k - 1)
    while True:
        yield tuple(head) + (n,)
        i = k - 2
        while i >= 0 and head[i] == n:
            i -= 1
        if i < 0:
            return
        value = head[i] + 1
        for j in range(i, k - 1):
            head[j] = value


def _fd_from_cumulative(form: tuple[int, ...]) -> FrequencyDistribution:
    # internal fast path: forms are valid by construction, skip validation
    counts = (form[0],) + tuple(form[i] - form[i - 1] for i in range(1, len(form)))
    fd = FrequencyDistribution.__new__(FrequencyDistribution)
    object.__setattr__(fd, "counts", counts)
    object.__setattr__(fd, "totals", form)
    return fd


def enumerate_members(n: int, k: int, cap: int = DEFAULT_CAP) -> Iterator[FrequencyDistribution]:
    """Stream every member of A(n, k), ordered lexicographically by
    cumulative form, refusing up front if the set exceeds ``cap``."""
    size = cardinality(n, k)
    if size > cap:
        raise CapExceededError(n, k, size, cap)
    return map(_fd_from_cumulative, _cumulative_forms(n, k))


def sample_uniform(
    n: int, k: int, seed, size: int | None = None
) -> FrequencyDistribution | np.ndarray:
    """Draw members of A(n, k), each with probability 1/|A(n, k)|.

    Each row draws a uniform (k-1)-subset of the n+k-1 slots by Floyd's
    algorithm, vectorised over rows (k-1 integer draws of ``size``
    values each), and reads the gaps between the chosen separators as
    counts (stars and bars), so every composition is equally likely.
    ``size=None`` returns one ``FrequencyDistribution``, the first row
    of ``size=1``; an int returns a ``(size, k)`` int64 count array.
    ``seed`` may be an int or a numpy Generator; identical seeds produce
    identical draws.
    """
    _validate_nk(n, k)
    rng = np.random.default_rng(seed)
    slots = n + k - 1
    rows = 1 if size is None else size
    chosen = np.empty((rows, k + 1), dtype=np.int64)
    chosen[:, 0], chosen[:, k] = -1, slots
    # Floyd: for each slot j from n upwards, pick t in 0..j; take t unless
    # it is already taken, and j itself then (j was never a candidate before)
    for col, j in enumerate(range(n, slots), start=1):
        t = rng.integers(0, j + 1, size=rows)
        taken = (chosen[:, 1:col] == t[:, None]).any(axis=1)
        chosen[:, col] = np.where(taken, j, t)
    chosen[:, 1:k].sort(axis=1)
    counts = np.diff(chosen, axis=1) - 1
    if size is None:
        return FrequencyDistribution(tuple(counts[0].tolist()))
    return counts


@dataclass(frozen=True)
class CollisionRecord:
    """One shared audit value with the members that produced it."""

    value: float
    count: int
    members: tuple[tuple[int, ...], ...]  # cumulative forms, possibly truncated


@dataclass(frozen=True)
class UniquenessReport:
    """Outcome of a uniqueness audit over one feasible set."""

    n: int
    k: int
    z: Fraction  # the exponent audited, exactly
    total: int
    unique_values: int
    collision_count: int
    collisions: tuple[CollisionRecord, ...]

    @property
    def fully_unique(self) -> bool:
        return self.unique_values == self.total


def audit_uniqueness(
    n: int,
    k: int,
    z,
    *,
    cap: int = DEFAULT_CAP,
    max_collisions: int = 20,
) -> UniquenessReport:
    """Compute sum((F_i/n)**z) for every member of A(n, k) and count the
    distinct values exactly, reporting collisions with member witnesses.

    ``z`` may be an int, a finite float or a ``fractions.Fraction``; it
    is audited as ``Fraction(z)``, so the float 1.1 stands for the
    double nearest 11/10, not for 11/10 itself, and the report's ``z`` is
    that ``Fraction``. The collision list keeps the ``max_collisions``
    smallest shared values, each with its first ``WITNESSES_PER_VALUE``
    cumulative forms in lexicographic order.
    """
    if not isinstance(z, (int, Fraction)):
        z = float(z)
        if not math.isfinite(z):
            raise ValidationError(f"exponent must be finite, got {z}")
    z = Fraction(z)
    if not z > 0:
        raise ValidationError(f"exponent must be positive, got {z}")
    if max_collisions < 0:
        raise ValidationError(f"max_collisions must be at least 0, got {max_collisions}")
    size = cardinality(n, k)
    if size > cap:
        raise CapExceededError(n, k, size, cap)

    unique_values, collision_count, groups = _audit_exact(n, k, z, max_collisions)
    records = tuple(
        CollisionRecord(
            value=value,
            count=len(forms),
            members=tuple(map(tuple, forms[:WITNESSES_PER_VALUE].tolist())),
        )
        for value, forms in groups
    )
    return UniquenessReport(
        n=n,
        k=k,
        z=z,
        total=size,
        unique_values=unique_values,
        collision_count=collision_count,
        collisions=records,
    )


def audit_uniqueness_default(n: int, k: int, **kwargs) -> UniquenessReport:
    """Audit with the bin-dependent default exponent z = (k + 1) / k.

    The exponent is passed as the rational (k + 1) / k itself, not as
    the nearest float.
    """
    _validate_nk(n, k)
    return audit_uniqueness(n, k, Fraction(k + 1, k), **kwargs)


def _audit_exact(n: int, k: int, z: Fraction, max_collisions: int):
    """(unique values, collision count, [(value, forms)]) for the exponent z.

    Members that share a hash are candidates; they collide only when
    their integer coefficients agree on every radical. The hash is
    injective for integer z while k * n**z < 2**64, so there every
    candidate group is a collision and only the reported ones are read.
    """
    decomp = _root_decompositions(n, z.numerator, z.denominator)
    table = _hash_table(decomp, n, z)
    sums = _grow_sums(n, k, table)
    sums += table[n]
    hashes, counts = np.unique(sums, return_counts=True)
    shared = hashes[counts >= 2]
    unique_values = len(hashes)
    steps = _unrank_steps(n, k)
    if z.denominator == 1 and k * decomp[n][0] < 2**64:
        collision_count = len(shared)
        groups = [_forms_at(idx, n, steps) for idx in _members(sums, shared[:max_collisions])]
    else:
        groups = []
        for idx in _members(sums, shared):
            split = _split_exact(_forms_at(idx, n, steps), decomp)
            unique_values += len(split) - 1
            groups += [forms for forms in split if len(forms) >= 2]
        collision_count = len(groups)

    if z.denominator == 1:
        def value_of(form):  # correctly rounded sum(t**z) / n**z
            return sum(decomp[t][0] for t in form) / decomp[n][0]
    else:
        floats = ((np.arange(n + 1, dtype=np.float64) / n) ** float(z)).tolist()

        def value_of(form):
            return math.fsum(floats[t] for t in form)

    keyed = sorted((value_of(g[0].tolist()), g[0].tolist(), i) for i, g in enumerate(groups))
    return unique_values, collision_count, [(v, groups[i]) for v, _, i in keyed[:max_collisions]]


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[m] = smallest prime factor of m, for m in 0..n (spf[0..1] unused)."""
    spf = list(range(n + 1))
    for i in range(2, int(n**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _root_decompositions(n: int, p: int, q: int) -> list[tuple[int, tuple]]:
    """For each t in 0..n, write t**(p/q) = u * v**(1/q) with v free of q-th powers.

    Returns exact (u, radical) pairs. The radical names v by its
    factorisation ((prime, exponent), ...) with every exponent in
    1..q-1, so v itself, which can be astronomically large when q is,
    is never built. The radical of a rational term is (). Exponents whose
    largest coefficient would exceed MAX_COEFFICIENT_BITS are rejected first.
    """
    if n > 1 and p // q > MAX_COEFFICIENT_BITS / math.log2(n):
        raise ValidationError(
            f"exponent {p}/{q} is too large for an exact audit at n={n}: the coefficient "
            f"{n}**{p // q} would exceed the limit of {MAX_COEFFICIENT_BITS} bits"
        )
    spf = _smallest_prime_factors(n)
    out = [(0, ()), (1, ())]
    for t in range(2, n + 1):
        u = 1
        radical = []
        m = t
        while m > 1:
            prime = spf[m]
            e = 0
            while m % prime == 0:
                m //= prime
                e += 1
            whole, rem = divmod(e * p, q)
            u *= prime**whole
            if rem:
                radical.append((prime, rem))
        out.append((u, tuple(radical)))
    return out


def _hash_table(decomp: list[tuple[int, tuple]], n: int, z: Fraction) -> np.ndarray:
    """uint64 hash of each term t**z: its coefficient u modulo
    _HASH_PRIME, times a multiplier fixed per radical, modulo 2**64.

    For t >= 1 no entry is 0: u's prime factors are at most n, below the
    prime, and the multiplier is odd. The rational radical takes
    multiplier 1, so for integer z with k * n**z < 2**64 (then u is below
    the prime) the table holds t**z itself. Every other radical takes a
    random odd multiplier seeded from (n, z), so an audit hashes
    identically run to run.
    """
    rng = np.random.default_rng((_AUDIT_ENTROPY, n, z.numerator, z.denominator))
    multipliers = {(): 1}
    table = np.empty(n + 1, dtype=np.uint64)
    for t, (u, radical) in enumerate(decomp):
        if radical not in multipliers:
            multipliers[radical] = int(rng.integers(0, 1 << 64, dtype=np.uint64)) | 1
        table[t] = (u % _HASH_PRIME * multipliers[radical]) & _HASH_MASK
    return table


def _split_exact(forms: np.ndarray, decomp: list[tuple[int, tuple]]) -> list[np.ndarray]:
    """Split forms that share a hash into groups of exactly equal value,
    keyed by their integer coefficient on each radical."""
    rows: dict[frozenset, list[int]] = {}
    for i, form in enumerate(forms.tolist()):
        coeffs: dict[tuple, int] = {}
        for t in form:
            u, radical = decomp[t]
            coeffs[radical] = coeffs.get(radical, 0) + u
        key = frozenset((radical, c) for radical, c in coeffs.items() if c)
        rows.setdefault(key, []).append(i)
    return [forms[r] for r in rows.values()]


def _grow_sums(n: int, k: int, table: np.ndarray) -> np.ndarray:
    """Partial sums over all nondecreasing (k-1)-prefixes with values in 0..n.

    Prefixes come out in colex order: (a_1, ..., a_{k-1}) sits at
    position sum_i C(a_i + i - 1, i), which _forms_at inverts.
    """
    cur = table.copy()
    counts = np.ones(n + 1, dtype=np.int64)  # prefixes ending at each value
    for _ in range(k - 2):
        offsets = np.cumsum(counts)  # prefixes with last value <= w
        grown = np.empty(int(offsets.sum()), dtype=table.dtype)
        pos = 0
        for w in range(n + 1):
            span = int(offsets[w])
            np.add(cur[:span], table[w], out=grown[pos : pos + span])
            pos += span
        cur = grown
        counts = offsets
    return cur


def _members(sums: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Positions in ``sums`` of each value of the sorted ``targets``, one
    ascending index array per target. Every target must occur in ``sums``.

    Looks ``sums`` up in fixed-size chunks so the temporaries stay small
    next to it.
    """
    if not len(targets):
        return []
    found, which = [], []
    for start in range(0, len(sums), _LOOKUP_CHUNK):
        chunk = sums[start : start + _LOOKUP_CHUNK]
        pos = np.searchsorted(targets, chunk)
        np.minimum(pos, len(targets) - 1, out=pos)
        hit = np.flatnonzero(targets[pos] == chunk)
        found.append(hit + start)
        which.append(pos[hit])
    which = np.concatenate(which)
    order = np.argsort(which, kind="stable")
    return np.split(np.concatenate(found)[order], np.flatnonzero(np.diff(which[order])) + 1)


def _unrank_steps(n: int, k: int) -> np.ndarray:
    """steps[i - 1, a] = C(a + i - 1, i), the rank that a_i = a adds in
    the _grow_sums order, for i in 1..k-1 and a in 0..n."""
    return np.array(
        [[math.comb(a + i - 1, i) for a in range(n + 1)] for i in range(1, k)], dtype=np.int64
    )


def _forms_at(indices: np.ndarray, n: int, steps: np.ndarray) -> np.ndarray:
    """Cumulative forms of the members at ``indices`` of the _grow_sums
    order, one row each, sorted lexicographically.

    Unranks in the combinatorial number system: from the last free
    position down, a_i is the largest a with C(a + i - 1, i) <= rank,
    read from ``steps`` (see _unrank_steps).
    """
    k = len(steps) + 1
    rank = np.array(indices, dtype=np.int64)
    forms = np.empty((len(rank), k), dtype=np.int64)
    forms[:, -1] = n
    for i in range(k - 1, 0, -1):
        col = np.searchsorted(steps[i - 1], rank, side="right") - 1
        forms[:, i - 1] = col
        rank -= steps[i - 1, col]
    return forms[np.lexsort(forms.T[::-1])]
