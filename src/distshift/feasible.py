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
hashes to 0, finds the candidate collisions: the hashes, sorted in
place, count the distinct ones and list those that repeat, about 10 B
per member. Only when a hash repeats are the hashes grown again, in
colex order, to find its members. One regroup decides them: the
candidates are unranked in one batch, sorted by (hash, form), and
each hash's forms are split by their exact coefficients, so a
collision is reported only when two members agree radical by radical.
For integer z with k * n**z < 2**64 the hash is the exact sum, so only
the reported hashes need regrouping.
"""
from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from operator import itemgetter
from typing import Iterator

import numpy as np

from .distributions import FrequencyDistribution, ValidationError

#: Default ceiling on feasible-set size for enumeration and audits. An
#: audit at the cap, 20M members, takes about 200 MB.
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


def _require_int(name: str, value, low: int) -> None:
    """Refuse a non-integer, a bool or a value below ``low``; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")


def _validate_nk(n: int, k: int) -> None:
    _require_int("n", n, 1)
    _require_int("k", k, 2)


def cardinality(n: int, k: int) -> int:
    """Exact number of members of A(n, k): C(n + k - 1, k - 1)."""
    _validate_nk(n, k)
    return math.comb(n + k - 1, k - 1)


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
    _require_int("cap", cap, 0)
    if size > cap:
        raise CapExceededError(n, k, size, cap)
    # a cumulative form is a nondecreasing k-tuple over 0..n ending in n
    forms = ((*head, n) for head in combinations_with_replacement(range(n + 1), k - 1))
    return map(_fd_from_cumulative, forms)


def sample_uniform(n: int, k: int, seed, size: int) -> np.ndarray:
    """Draw ``size`` members of A(n, k), each with probability 1/|A(n, k)|,
    as a ``(size, k)`` int64 array of counts, one member per row.

    Each member draws a uniform (k-1)-subset of the n+k-1 slots by
    Floyd's algorithm (k-1 integer draws of ``size`` values each), and
    reads the gaps between the sorted separators as counts (stars and
    bars), so every composition is equally likely. The work is
    column-major: separator i of every member is one contiguous row of a
    (k+1, size) array, so the membership test and the sort run along
    axis 0. The result is the transpose of a C-contiguous (k, size)
    array: its columns, not its rows, are contiguous.
    ``FrequencyDistribution(row)`` gives one row to the scalar API.
    ``seed`` may be an int or a numpy Generator; identical seeds produce
    identical draws.
    """
    _validate_nk(n, k)
    _require_int("size", size, 0)
    rng = np.random.default_rng(seed)
    slots = n + k - 1
    chosen = np.empty((k + 1, size), dtype=np.int64)
    chosen[0], chosen[k] = -1, slots
    # Floyd: for each slot j from n upwards, pick t in 0..j; take t unless
    # it is already taken, and j itself then (j was never a candidate before)
    for row, j in enumerate(range(n, slots), start=1):
        t = rng.integers(0, j + 1, size=size)
        taken = (chosen[1:row] == t).any(axis=0)
        chosen[row] = np.where(taken, j, t)
    chosen[1:k].sort(axis=0)
    counts = np.diff(chosen, axis=0)
    counts -= 1
    return counts.T


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
    if isinstance(z, bool) or not isinstance(z, numbers.Real):
        raise ValidationError(f"exponent must be a real number, got {z!r}")
    if not isinstance(z, (int, Fraction)):
        z = float(z)
        if not math.isfinite(z):
            raise ValidationError(f"exponent must be finite, got {z}")
    z = Fraction(z)
    if not z > 0:
        raise ValidationError(f"exponent must be positive, got {z}")
    _require_int("max_collisions", max_collisions, 0)
    _require_int("cap", cap, 0)
    size = cardinality(n, k)
    if size > cap:
        raise CapExceededError(n, k, size, cap)

    decomp = _root_decompositions(n, z.numerator, z.denominator)
    table = _hash_table(decomp, n, z)
    sums = _grow_sums(n, k, table)
    sums += table[n]
    # count distinct hashes, and list the repeated ones ascending, from the
    # sums sorted in place; _members regrows them in colex order if need be
    sums.sort()
    repeat = sums[1:] == sums[:-1]
    unique_values = size - int(np.count_nonzero(repeat))
    repeat[1:] &= ~repeat[:-1]
    shared = sums[1:][repeat]
    del sums, repeat
    # members sharing a hash are candidates; they collide only when their
    # integer coefficients agree on every radical. The hash is injective
    # for integer z while k * n**z < 2**64, so there every shared hash is
    # one collision and only the reported ones are regrouped
    injective = z.denominator == 1 and k * decomp[n][0] < 2**64
    targets = shared[:max_collisions] if injective else shared
    positions, which = _members(n, k, table, targets)
    forms = _forms_at(positions, n, _unrank_steps(n, k))
    order = np.lexsort((*forms.T[::-1], which))
    groups = []
    for _, rows in groupby(zip(which[order].tolist(), forms[order].tolist()), key=itemgetter(0)):
        classes: dict[frozenset, list[list[int]]] = {}
        for _, form in rows:
            classes.setdefault(_exact_key(form, decomp), []).append(form)
        unique_values += len(classes) - 1
        groups += [members for members in classes.values() if len(members) >= 2]

    if z.denominator == 1:
        def value_of(form):  # correctly rounded sum(t**z) / n**z
            return sum(decomp[t][0] for t in form) / decomp[n][0]
    else:
        floats = ((np.arange(n + 1, dtype=np.float64) / n) ** float(z)).tolist()

        def value_of(form):
            return math.fsum(floats[t] for t in form)

    return UniquenessReport(
        n=n, k=k, z=z, total=size, unique_values=unique_values,
        collision_count=len(shared) - len(targets) + len(groups),
        collisions=tuple(
            CollisionRecord(value_of(g[0]), len(g), tuple(map(tuple, g[:WITNESSES_PER_VALUE])))
            for g in heapq.nsmallest(max_collisions, groups, key=lambda c: (value_of(c[0]), c[0]))
        ),
    )


def audit_uniqueness_default(n: int, k: int, **kwargs) -> UniquenessReport:
    """Audit with the bin-dependent default exponent z = (k + 1) / k.

    The exponent is passed as the rational (k + 1) / k itself, not as
    the nearest float.
    """
    _validate_nk(n, k)
    return audit_uniqueness(n, k, Fraction(k + 1, k), **kwargs)


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


def _exact_key(form: list[int], decomp: list[tuple[int, tuple]]) -> frozenset:
    """The exact value of sum(t**z) over ``form``: its nonzero integer
    coefficient on each radical."""
    coeffs: dict[tuple, int] = {}
    for t in form:
        u, radical = decomp[t]
        coeffs[radical] = coeffs.get(radical, 0) + u
    return frozenset((radical, c) for radical, c in coeffs.items() if c)


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


def _members(
    n: int, k: int, table: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Colex positions of the members of A(n, k) whose hash is in the
    sorted ``targets``, and the index in ``targets`` of each one's hash,
    as two flat arrays with the positions ascending.

    The hashes are grown again, only when there is a target: growth is
    deterministic, so they match the ones the audit sorted. They are
    looked up in fixed-size chunks so the temporaries stay small next to
    them.
    """
    if not len(targets):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sums = _grow_sums(n, k, table)
    sums += table[n]
    found, which = [], []
    for start in range(0, len(sums), _LOOKUP_CHUNK):
        chunk = sums[start : start + _LOOKUP_CHUNK]
        pos = np.searchsorted(targets, chunk)
        np.minimum(pos, len(targets) - 1, out=pos)
        hit = np.flatnonzero(targets[pos] == chunk)
        found.append(hit + start)
        which.append(pos[hit])
    return np.concatenate(found), np.concatenate(which)


def _unrank_steps(n: int, k: int) -> np.ndarray:
    """steps[i - 1, a] = C(a + i - 1, i), the rank that a_i = a adds in
    the _grow_sums order, for i in 1..k-1 and a in 0..n."""
    return np.array(
        [[math.comb(a + i - 1, i) for a in range(n + 1)] for i in range(1, k)], dtype=np.int64
    )


def _forms_at(indices: np.ndarray, n: int, steps: np.ndarray) -> np.ndarray:
    """Cumulative forms of the members at ``indices`` of the _grow_sums
    order, one row each, in the order of ``indices``.

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
    return forms
