"""Core value types for discrete frequency distributions.

A frequency distribution places n observations into k ordered bins as
nonnegative integer counts. Its cumulative form holds the running totals.
Both are immutable; every operation here is a pure function.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import accumulate


class DistributionError(ValueError):
    """Base class for input errors on distributions."""


class ParseError(DistributionError):
    """Malformed input text. ``position`` is the offending field or char offset."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ValidationError(DistributionError):
    """Structurally parseable input that violates a distribution invariant."""


def _int_tuple(values, what: str) -> tuple[int, ...]:
    """``values`` as Python ints; anything usable as an index (numpy
    integers too) is accepted, but no bools."""
    values = tuple(values)
    if all(type(v) is int for v in values):
        return values
    for i, v in enumerate(values):
        if isinstance(v, bool) or not hasattr(v, "__index__"):
            raise ValidationError(f"non-integer {what} {v!r} at bin {i}")
    return tuple(map(operator.index, values))


@dataclass(frozen=True)
class FrequencyDistribution:
    """Nonnegative integer counts per ordered bin; n and k are derived."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _int_tuple(self.counts, "count")
        object.__setattr__(self, "counts", counts)
        if len(counts) < 2:
            raise ValidationError(f"need at least 2 bins, got {len(counts)}")
        for i, c in enumerate(counts):
            if c < 0:
                raise ValidationError(f"negative count {c} at bin {i}")
        if sum(counts) < 1:
            raise ValidationError("total observations must be at least 1")

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def k(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class CumulativeDistribution:
    """Nondecreasing running totals; the final total equals n."""

    totals: tuple[int, ...]

    def __post_init__(self):
        totals = _int_tuple(self.totals, "total")
        object.__setattr__(self, "totals", totals)
        if len(totals) < 2:
            raise ValidationError(f"need at least 2 bins, got {len(totals)}")
        if totals[0] < 0:
            raise ValidationError(f"negative total {totals[0]} at bin 0")
        for i in range(1, len(totals)):
            if totals[i] < totals[i - 1]:
                raise ValidationError(
                    f"totals must be nondecreasing, got {totals[i]} after {totals[i - 1]}"
                )
        if totals[-1] < 1:
            raise ValidationError("total observations must be at least 1")

    @property
    def n(self) -> int:
        return self.totals[-1]

    @property
    def k(self) -> int:
        return len(self.totals)


def cumulate(f: FrequencyDistribution) -> CumulativeDistribution:
    """Running totals of the counts (exact integer arithmetic)."""
    return CumulativeDistribution(tuple(accumulate(f.counts)))


def decumulate(F: CumulativeDistribution) -> FrequencyDistribution:
    """Inverse of :func:`cumulate`: first differences of the totals."""
    t = F.totals
    return FrequencyDistribution((t[0],) + tuple(t[i] - t[i - 1] for i in range(1, len(t))))


def parse_distributions(text: str, format: str = "csv") -> list[FrequencyDistribution]:
    """Parse one or more distributions.

    CSV holds one distribution per line. JSON is a flat array (one
    distribution) or an array of arrays (several).
    """
    if format == "csv":
        out = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                out.append(_parse_csv_line(line))
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}", exc.position) from None
        if not out:
            raise ParseError("empty input")
        return out
    if format == "json":
        value = _load_json(text)
        if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
            return [_counts_from_json(v) for v in value]
        return [_counts_from_json(value)]
    raise ValueError(f"unknown format {format!r}, expected 'csv' or 'json'")


def _parse_csv_line(line: str) -> FrequencyDistribution:
    counts = []
    for pos, token in enumerate(line.split(","), start=1):
        tok = token.strip()
        if not tok:
            raise ParseError(f"empty field at position {pos}", pos)
        try:
            counts.append(int(tok))
        except ValueError:
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"invalid integer {tok!r} at position {pos}", pos) from None
            raise ValidationError(f"non-integer count {tok!r} at position {pos}") from None
    return FrequencyDistribution(tuple(counts))


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None


def _counts_from_json(value) -> FrequencyDistribution:
    if not isinstance(value, list):
        raise ParseError(f"expected a JSON array, got {type(value).__name__}")
    counts = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValidationError(f"non-integer count {v!r} at bin {i}")
        counts.append(v)
    return FrequencyDistribution(tuple(counts))
