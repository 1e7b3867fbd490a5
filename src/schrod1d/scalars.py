"""Scalar regimes.

Potentials and spectral parameters live in one of three regimes, a chain

    integer < rational < float        (coercion goes rightward)

The exact regimes use arbitrary precision (int, Fraction); float is IEEE
double. The chain is Python's promotion int < Fraction < float, so the
package computes on scalars as they come; this module alone decides what a
scalar is (regime_of, to_fraction) and how regimes join.
"""

import math
from fractions import Fraction

INTEGER = "integer"
RATIONAL = "rational"
FLOAT = "float"

REGIMES = (INTEGER, RATIONAL, FLOAT)  # weakest first


class RegimeError(ValueError):
    """A scalar has no regime, or a value does not fit its declared
    regime."""


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


def to_fraction(x):
    """The scalar x as an exact Fraction: RegimeError for a bool or a
    non-scalar, ValueError for nan and inf."""
    if regime_of(x) == FLOAT and not math.isfinite(x):
        raise ValueError("non-finite scalar %r" % (x,))
    return Fraction(x)


def join_regimes(a, b):
    """The stronger of two regimes; RegimeError for an unknown name."""
    for name in (a, b):
        if name not in REGIMES:
            raise RegimeError("unknown regime %r" % (name,))
    return a if REGIMES.index(a) >= REGIMES.index(b) else b


def coerce(x, regime):
    """Coerce x into the given regime, exactly where the regime is exact."""
    src = regime_of(x)
    if join_regimes(src, regime) != regime:
        raise RegimeError("cannot coerce %s value into %s regime" % (src, regime))
    if regime == INTEGER:
        return int(x)
    if regime == RATIONAL:
        return Fraction(x) if not isinstance(x, Fraction) else x
    return float(x)


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


def decode_scalar(v, regime):
    """Inverse of encode_scalar under a declared regime."""
    if regime == INTEGER:
        return _require_int(v, "expected integer")
    if regime == RATIONAL:
        if isinstance(v, str):
            num, _, den = v.partition("/")
            den = int(den) if den else 1
            if den == 0:
                raise ValueError("zero denominator in %r" % (v,))
            return Fraction(int(num), den)
        if isinstance(v, int) and not isinstance(v, bool):
            return Fraction(v)
        raise RegimeError("expected rational encoding, got %r" % (v,))
    if regime == FLOAT:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise RegimeError("expected float encoding, got %r" % (v,))
        if not math.isfinite(v):
            raise ValueError("non-finite scalar %r" % (v,))
        return float(v)
    raise RegimeError("unknown regime %r" % (regime,))


def decode_scalar_any(v):
    """Scalar from JSON without a declared regime: numbers as written,
    strings as exact rationals.

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
