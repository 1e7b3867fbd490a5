"""Scalar regimes.

Potentials and spectral parameters live in one of three regimes, a chain

    integer < rational < float

read off the values (int, Fraction, float), never declared. The exact
regimes use arbitrary precision; float is IEEE double. The chain is Python's
promotion int < Fraction < float, so the package computes on scalars as
they come and coerces none of them; this module alone decides what a scalar
is (regime_of, to_exact), which regime several values share (regime_of_all)
and how a scalar reads from and writes to JSON.
"""

import math
from fractions import Fraction

INTEGER = "integer"
RATIONAL = "rational"
FLOAT = "float"


class RegimeError(ValueError):
    """A value is not a scalar, or its regime does not suit the operation."""


def regime_of(x):
    """Classify a scalar value. bool is rejected (it is not a potential value)."""
    if isinstance(x, bool):
        raise RegimeError("bool is not a scalar value")
    if isinstance(x, int):
        return INTEGER
    if isinstance(x, Fraction):
        return RATIONAL
    if isinstance(x, float):
        return FLOAT
    raise RegimeError("unsupported scalar type %r" % type(x).__name__)


def regime_of_all(values):
    """The strongest regime of the values (integer for none)."""
    found = set(map(regime_of, values))
    return next((r for r in (FLOAT, RATIONAL) if r in found), INTEGER)


def to_exact(x):
    """The scalar x as an exact number: an int unchanged, a Fraction or a
    finite float as a Fraction. RegimeError for a bool or a non-scalar,
    ValueError for nan and inf."""
    regime = regime_of(x)
    if regime == INTEGER:
        return x
    if regime == FLOAT and not math.isfinite(x):
        raise ValueError("non-finite scalar %r" % (x,))
    return Fraction(x)


def encode_scalar(x):
    """JSON encoding: int -> number, Fraction -> "p/q", float -> number."""
    if regime_of(x) == RATIONAL:
        return "%d/%d" % (x.numerator, x.denominator)
    return x


def _require_int(v, claim):
    """v, which must be an int: a float, bool or string is a RegimeError
    "<claim>, got <v>", never truncated or coerced."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise RegimeError("%s, got %r" % (claim, v))
    return v


def decode_scalar_any(v):
    """Scalar from JSON: numbers as written, strings as exact rationals.

    Malformed input raises ValueError (RegimeError for booleans).
    """
    if isinstance(v, bool):
        raise RegimeError("boolean scalar rejected")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError("non-finite scalar %r" % (v,))
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (v,)) from None
    raise ValueError("cannot decode scalar %r" % (v,))
