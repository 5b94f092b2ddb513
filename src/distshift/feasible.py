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
coefficients agree radical by radical.

For q >= 2, t = m**q * v has the coefficient m**p times a constant of v
alone, so two members are equal only when, in some class v, multisets
of at most k - 1 values m with m**q <= n have equal sums of m**p. When
no two such multisets do, the audit has no collision and returns at
once. Otherwise the classes give the whole report, with no hash: the
counts come from a table per class of its sums by fewest-term size and
by the gap to their next realization, multiplied over the classes, and
the records from the colliding members of smallest value alone, built
from the tied sums.

For integer z, one uint64 hash of the coefficients, each reduced modulo
a prime above every n so that no term hashes to 0, finds the candidate
collisions: the hashes, sorted in place, count the distinct ones and
list those that repeat, about 9 B per member. With k * n**z < 2**64 the
hash is the exact sum, so only the reported hashes need regrouping, and
their members have every free total within a colex prefix of the sums.
Where a recurrence over the multisets of free totals also needs no more
counts, k * (k - 1) / 2 * n**z + k, than there are members, no sum is
grown to count them: it counts the members of each exact sum from the
terms t**z alone, in at most 8 B per member. Either way the sums are
grown in colex order, for the lookup, only when a hash repeats, and for
an exact sum only that prefix; one lookup, np.isin, then finds the
members of the hashes to regroup. One regroup decides them:
the candidates are unranked in one batch, sorted by form, and split by
their exact coefficients alone, so a collision is reported only when two
members agree radical by radical. The same engine audits any rational
exponent, as the oracle of the classes.
"""
from __future__ import annotations

import heapq
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations_with_replacement
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
_LOOKUP_CHUNK = 1 << 16
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


def _validate_sampled_nk(n: int, k: int) -> None:
    """``_validate_nk``, and refuse n + k - 1 >= 2**63: the samplers draw
    int64 values, the uniform one up to n + k - 1."""
    _validate_nk(n, k)
    if int(n) + int(k) - 1 >= 2**63:
        raise ValidationError(f"n + k - 1 must be below 2**63 to sample, got n={n}, k={k}")


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
    _validate_sampled_nk(n, k)
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
    audit = _hash_audit if z.denominator == 1 else _class_audit
    return audit(n, k, z, decomp, size, max_collisions)


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
    if q == 1:  # an integer exponent leaves no radical
        return [(t**p, ()) for t in range(n + 1)]
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


def _classes_unique(n: int, k: int, z: Fraction) -> bool:
    """Whether the multisets of k - 1 values m**p, m in 0..M, have distinct
    sums, for z = p/q and M the largest m with m**q <= n; if so, A(n, k)
    has no collision at z (see the module docstring)."""
    p, q = z.numerator, z.denominator
    top = 1  # M, counted up: 2**q > n once q >= n.bit_length(), and is never built
    while q < int(n).bit_length() and (top + 1) ** q <= n:
        top += 1
    sums = {sum(c) for c in combinations_with_replacement([m**p for m in range(top + 1)], k - 1)}
    return len(sums) == math.comb(top + k - 1, k - 1)


def _class_audit(
    n: int, k: int, z: Fraction, decomp: list, size: int, max_collisions: int
) -> UniquenessReport:
    """audit_uniqueness for z = p/q with q >= 2, from the radical classes
    alone (see the module docstring); no hash is built."""
    if _classes_unique(n, k, z):
        return UniquenessReport(n, k, z, size, size, 0, ())
    classes: dict[tuple, list[int]] = {}  # radical -> its totals m**q * v, m = 1, 2, ...
    for t in range(1, n + 1):
        classes.setdefault(decomp[t][1], []).append(t)
    per_size = Counter(map(len, classes.values()))
    # Each sum of at most k - 1 values m**p, m <= M, has a fewest-term size
    # a and a gap b - a to its next-fewest realization (k: none). Cell
    # [a][g] of the table of a class with M values counts its sums of size
    # a and gap >= g; the table of a product of classes adds sizes and
    # takes the least gap, and a value of size a collides exactly when its
    # gap is at most k - 1 - a. M grows by one value at a time
    sums: dict[int, list[tuple[int, ...]]] = {}  # realizations, by largest value
    fewest: dict[int, tuple[int, int]] = {}  # the two fewest-term sizes of each sum
    cells = [[0] * (k + 1) for _ in range(k)]  # sums by size and exact gap
    counted = [[1] * (k + 1)] + [[0] * (k + 1) for _ in range(k - 1)]
    # m**p for m up to M_max: the class v = 1 has the most values
    powers = [m**z.numerator for m in range(len(classes[()]) + 1)]
    for top in range(len(powers)):
        for head in combinations_with_replacement(range(top + 1), k - 2):
            r = (*head, top)
            r = r[r.count(0) :]
            s, d = sum(map(powers.__getitem__, r)), len(r)
            sums.setdefault(s, []).append(r)
            if s in fewest:
                a, b = fewest[s]
                cells[a][min(b - a, k)] -= 1
                fewest[s] = (d, a) if d < a else (a, min(b, d))
            else:
                fewest[s] = (d, 2 * k)  # no second realization: a gap above k
            a, b = fewest[s]
            cells[a][min(b - a, k)] += 1
        copies = per_size.get(top, 0)
        base = [list(accumulate(row[::-1]))[::-1] for row in cells]
        while copies:
            if copies & 1:
                counted = _table_product(counted, base, k)
            copies >>= 1
            if copies:
                base = _table_product(base, base, k)
    unique_values = sum(row[0] for row in counted)
    collision_count = sum(row[0] - row[k - a] for a, row in enumerate(counted))
    if not max_collisions:
        return UniquenessReport(n, k, z, size, unique_values, collision_count, ())

    # A member collides exactly when, in some class, its part r realizes a
    # tied sum and another realization r' fits beside the rest: it is
    # r + X, with X at most k - 1 - max(|r|, least other |r'|) totals of
    # other classes. These members are built by ascending float value
    # from a heap, each X from its parent by repeating its last total or
    # moving it to the next one, until max_collisions values have two
    # members; then on to that value plus a margin, so that every value
    # up to it has all its members
    floats, value_of = _float_value(n, z)
    # the running float sum of a member and the reported value (an fsum)
    # of any member equal to it differ by under the margin: each term
    # (t / n)**z, raised in floats, errs by a few ulps plus z times the
    # rounding of t / n and of z, and k terms add k roundings
    margin = k * (k + float(z) + 1024) * 2.0**-50
    ties = []  # (part r, room for X, class) of every tied realization
    tied = [rs for rs in sums.values() if len(rs) >= 2]
    for radical, ts in classes.items():
        for rs in tied if len(ts) >= 2 else ():
            rs = [r for r in rs if r[-1] <= len(ts)]
            if len(rs) >= 2:
                sizes = sorted(map(len, rs))
                for r in rs:
                    other = sizes[1] if len(r) == sizes[0] else sizes[0]
                    ties.append((tuple(ts[m - 1] for m in r), k - 1 - max(len(r), other), radical))

    # a member's running sum adds its terms in order, 1 and r's first, so
    # a child's is its parent's, or the sum before the parent's last
    # term, plus one term. Here a class holds two values, so 2**q <= n:
    # the float terms rise with t, or are 0.0, and no child is below its
    # parent
    heap = [(sum((floats[t] for t in r), 1.0), i, (), None) for i, (r, _, _) in enumerate(ties)]
    heapq.heapify(heap)
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    built = set()  # a member with ties in two classes comes twice
    shared, reach = 0, math.inf
    while heap and heap[0][0] <= reach + margin:
        at, i, picks, before = heapq.heappop(heap)
        part, room, radical = ties[i]
        children = [(picks[:-1], picks[-1] + 1, before)] if picks else []
        if len(picks) < room:
            children.append((picks, picks[-1] if picks else 1, at))
        for head, t, start in children:
            while t <= n and decomp[t][1] == radical:  # X keeps out of r's class
                t += 1
            if t <= n:
                heapq.heappush(heap, (start + floats[t], i, head + (t,), start))
        member = tuple(sorted(part + picks))
        form = (0,) * (k - 1 - len(member)) + member + (n,)
        if form in built:
            continue
        built.add(form)
        group = groups.setdefault(_exact_key(form, decomp), [])
        group.append(form)
        if len(group) == 2:
            shared += 1
            if shared == max_collisions:
                reach = at + margin
    groups = [g for g in map(sorted, groups.values()) if len(g) >= 2]
    if reach < math.inf:  # values beyond the reach may miss members
        groups = [g for g in groups if value_of(g[0]) <= reach]
    return UniquenessReport(n, k, z, size, unique_values, collision_count,
                            _records(groups, value_of, max_collisions))


def _table_product(x: list[list[int]], y: list[list[int]], k: int) -> list[list[int]]:
    """Two (size, gap) count tables of _class_audit combined: sizes add up
    to k - 1, and each gap column multiplies."""
    out = [[0] * (k + 1) for _ in range(k)]
    for a, row in enumerate(x):
        for b in range(k - a):
            out[a + b] = [o + r * s for o, r, s in zip(out[a + b], row, y[b])]
    return out


def _hash_audit(
    n: int, k: int, z: Fraction, decomp: list, size: int, max_collisions: int
) -> UniquenessReport:
    """audit_uniqueness by hashing every member (see the module docstring):
    the audit of integer exponents, and an oracle for _class_audit."""
    table = _hash_table(decomp, n, z)
    # members sharing a hash are candidates; they collide only when their
    # integer coefficients agree on every radical. The hash is injective
    # for integer z while k * n**z < 2**64, so there every shared hash is
    # one collision and only the reported ones are regrouped
    injective = z.denominator == 1 and k * decomp[n][0] < 2**64
    if injective and k * (k - 1) // 2 * decomp[n][0] + k <= size:
        # the count rows hold no more entries than the sort below would
        # hash members, 8 B each: count the members of each sum from the
        # terms alone, and grow no member until the lookup below
        counts = _count_sums(n, k, table)
        unique_values = int(np.count_nonzero(counts))
        # uint64 like the sums: numpy would compare int64 with them as float64
        shared = np.flatnonzero(counts >= 2).astype(np.uint64) + table[n]
        del counts
    else:
        # count distinct hashes, and list the repeated ones ascending, from
        # the sums sorted in place
        sums = _grow_sums(n, k, table)
        sums.sort()
        repeat = sums[1:] == sums[:-1]
        unique_values = size - int(np.count_nonzero(repeat))
        for stop in range(len(repeat), 0, -_LOOKUP_CHUNK):  # keep run starts, in place from the end
            start = max(stop - _LOOKUP_CHUNK, 1)
            repeat[start:stop] &= ~repeat[start - 1 : stop - 1]
        shared = sums[1:][repeat]
        sums = repeat = None  # out of colex order: freed before the growth below
    targets = shared[:max_collisions] if injective else shared
    top = n
    if injective and len(targets):
        # the table rises with t, so a target's members have every free
        # total t with t**z <= target - n**z: a colex prefix of the sums
        top = int(np.searchsorted(table, targets[-1] - table[n], side="right")) - 1
    # growth is deterministic: the same hashes, in the colex order that
    # sorted sums lose and counted ones never had
    sums = _grow_sums(n, k, table, top) if len(targets) else table[:0]
    forms = _forms_at(_members(sums, targets), n, k)
    # split the candidates, in lexicographic order, by exact value alone:
    # only equal members merge, and when every coefficient is below the
    # prime equal members share a hash, so the classes replace the targets
    classes: dict[tuple, list[list[int]]] = {}
    for form in forms[np.lexsort(forms.T[::-1])].tolist():
        classes.setdefault(_exact_key(form, decomp), []).append(form)
    unique_values += len(classes) - len(targets)
    groups = [members for members in classes.values() if len(members) >= 2]

    if z.denominator == 1:
        def value_of(form):  # correctly rounded sum(t**z) / n**z
            return sum(decomp[t][0] for t in form) / decomp[n][0]
    else:
        _, value_of = _float_value(n, z)
    return UniquenessReport(
        n=n, k=k, z=z, total=size, unique_values=unique_values,
        collision_count=len(shared) - len(targets) + len(groups),
        collisions=_records(groups, value_of, max_collisions),
    )


def _float_value(n: int, z: Fraction):
    """The terms (t / n)**z, t in 0..n, as floats, and the reported value
    of a form at a non-integer z: the fsum of its terms."""
    terms = ((np.arange(n + 1, dtype=np.float64) / n) ** float(z)).tolist()
    return terms, lambda form: math.fsum(terms[t] for t in form)


def _records(groups: list[list], value_of, max_collisions: int) -> tuple[CollisionRecord, ...]:
    """The ``max_collisions`` groups of equal members, each in
    lexicographic order, of smallest value, then first form."""
    return tuple(
        CollisionRecord(value_of(g[0]), len(g), tuple(map(tuple, g[:WITNESSES_PER_VALUE])))
        for g in heapq.nsmallest(max_collisions, groups, key=lambda c: (value_of(c[0]), c[0]))
    )


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


def _exact_key(form: list[int], decomp: list[tuple[int, tuple]]) -> tuple:
    """The exact value of sum(t**z) over ``form``: each radical of a nonzero
    term, then its positive coefficient, in radical order. One flat tuple
    per class takes about a quarter of the memory of a frozenset of pairs."""
    coeffs: dict[tuple, int] = {}
    for t in form:
        if t:
            u, radical = decomp[t]
            coeffs[radical] = coeffs.get(radical, 0) + u
    return tuple(chain.from_iterable(sorted(coeffs.items())))


def _grow_sums(n: int, k: int, table: np.ndarray, top: int | None = None) -> np.ndarray:
    """Hashes of every member of A(n, k): sums of ``table`` over each
    cumulative form (a_1, ..., a_{k-1}, n), each at the colex rank
    sum_i C(a_i + i - 1, i) of its free prefix, which _forms_at inverts.
    With ``top``, only the members whose free totals are at most ``top``:
    the first C(top + k - 1, k - 1) hashes of the whole.
    """
    top = n if top is None else top
    cur = table[: top + 1] + table[n]
    counts = np.ones(top + 1, dtype=np.int64)  # prefixes ending at each value
    for _ in range(k - 2):
        offsets = np.cumsum(counts)  # prefixes with last value <= w
        grown = np.empty(int(offsets.sum()), dtype=table.dtype)
        pos = 0
        for w in range(top + 1):
            span = int(offsets[w])
            np.add(cur[:span], table[w], out=grown[pos : pos + span])
            pos += span
        cur = grown
        counts = offsets
    return cur


def _count_sums(n: int, k: int, table: np.ndarray) -> np.ndarray:
    """Members of A(n, k) per exact sum of their free totals' terms, for
    a ``table`` of exact integer terms t**z rising with t: entry s counts
    the members whose hash, from _grow_sums, is s + table[n].

    A member is a multiset of at most k - 1 nonzero free totals. Row j of
    the count array counts the multisets of j of them by sum; adding the
    totals t = 1..n in turn, each row j takes the row below it, already
    holding t, shifted by t**z, and every sum of row j - 1 is then at most
    (j - 1) * t**z, so row j takes j * n**z + 1 entries; the rows are
    added into the last one at the end. No member is built: the audit's
    condition keeps the k * (k - 1) / 2 * n**z + k entries, 8 B each,
    within 8 B per member, what sorting their hashes would take.
    """
    top = int(table[n])
    rows = [np.zeros(j * top + 1, dtype=np.int64) for j in range(k)]
    rows[0][0] = 1
    for w in table[1:].tolist():
        for j in range(1, k):
            rows[j][w : j * w + 1] += rows[j - 1][: (j - 1) * w + 1]
    counts = rows.pop()
    for row in rows:
        counts[: len(row)] += row
    return counts


def _members(sums: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the ``sums`` that are in the ``targets``.

    Both counting paths of the hash engine find their members here, in
    sums grown for the lookup in the colex order that sorted sums lose and
    counted ones never had; for an injective hash, only the colex prefix
    that holds the reported sums. The sums are looked up in fixed-size
    chunks so the temporaries stay small next to them.
    """
    if not len(targets):
        return np.empty(0, dtype=np.int64)
    return np.concatenate([
        np.flatnonzero(np.isin(sums[start : start + _LOOKUP_CHUNK], targets)) + start
        for start in range(0, len(sums), _LOOKUP_CHUNK)
    ])


def _forms_at(positions: np.ndarray, n: int, k: int) -> np.ndarray:
    """Cumulative forms of the members of A(n, k) at ``positions`` of the
    _grow_sums order, one row each, in the order of ``positions``.

    Unranks in the combinatorial number system: from the last free
    position down, a_i is the largest a with C(a + i - 1, i) <= rank.
    """
    rank = np.array(positions, dtype=np.int64)
    forms = np.empty((len(rank), k), dtype=np.int64)
    forms[:, -1] = n
    for i in range(k - 1, 0, -1):
        steps = np.array([math.comb(a + i - 1, i) for a in range(n + 1)], dtype=np.int64)
        col = np.searchsorted(steps, rank, side="right") - 1
        forms[:, i - 1] = col
        rank -= steps[col]
    return forms
