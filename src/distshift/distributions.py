"""Core value types for discrete frequency distributions.

A frequency distribution places n observations into k ordered bins as
nonnegative integer counts. It carries their running totals F_i, the
cumulative form that DS and the cumulative measures read. Distributions
are immutable; every operation here is a pure function.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from itertools import accumulate

#: Totals stay below this, so no positive count has a frequency of 0.0 and p/q stays finite.
_MAX_TOTAL = 2**1023
_TOO_LARGE = "total observations must be below 2**1023"


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
    """Nonnegative integer counts per ordered bin and their running
    totals; n and k are derived."""

    counts: tuple[int, ...]
    totals: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        counts = _int_tuple(self.counts, "count")
        object.__setattr__(self, "counts", counts)
        if len(counts) < 2:
            raise ValidationError(f"need at least 2 bins, got {len(counts)}")
        if min(counts) < 0:
            i = next(i for i, c in enumerate(counts) if c < 0)
            raise ValidationError(f"negative count {counts[i]} at bin {i}")
        object.__setattr__(self, "totals", tuple(accumulate(counts)))
        if self.n < 1:
            raise ValidationError("total observations must be at least 1")
        if self.n >= _MAX_TOTAL:
            raise ValidationError(_TOO_LARGE)

    @classmethod
    def from_totals(cls, totals) -> FrequencyDistribution:
        """The distribution with these running totals: their first
        differences, so decreasing totals are negative counts."""
        t = _int_tuple(totals, "total")
        return cls(t[:1] + tuple(b - a for a, b in zip(t, t[1:])))

    @property
    def n(self) -> int:
        return self.totals[-1]

    @property
    def k(self) -> int:
        return len(self.counts)


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
    # int() also takes underscores and any Unicode digit; JSON takes neither
    if line.isascii() and "_" not in line:
        try:
            counts = tuple(map(int, line.split(",")))
        except ValueError:  # the loop below names the field at fault
            pass
        else:
            return FrequencyDistribution(counts)
    counts = []
    for pos, token in enumerate(line.split(","), start=1):
        tok = token.strip()
        if not tok:
            raise ParseError(f"empty field at position {pos}", pos)
        if not tok.isascii() or "_" in tok:
            raise ParseError(f"invalid integer {tok!r} at position {pos}", pos)
        try:
            counts.append(int(tok))
        except ValueError:
            if tok[tok[0] in "+-":].isdigit():  # past int()'s digit limit, so beyond _MAX_TOTAL
                raise ValidationError(f"count too long at position {pos}: {_TOO_LARGE}") from None
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
    except ValueError:  # an integer past int()'s digit limit, so beyond _MAX_TOTAL
        raise ValidationError(f"count too long: {_TOO_LARGE}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _counts_from_json(value) -> FrequencyDistribution:
    if not isinstance(value, list):
        raise ParseError(f"expected a JSON array, got {type(value).__name__}")
    return FrequencyDistribution(tuple(value))
