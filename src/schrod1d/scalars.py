"""Scalar regimes.

Potentials and spectral parameters live in one of four regimes:

    integer < rational < float        (a chain, coercion goes rightward)
    gaussian_integer                  (mixes with integer only)

The exact regimes use arbitrary precision (int, Fraction, GaussianInteger);
float is IEEE double. All exact arithmetic in the package is duck-typed over
these scalars, so transfer products, orbits and determinants work in whatever
regime the inputs join to.
"""

import math
from fractions import Fraction

INTEGER = "integer"
RATIONAL = "rational"
FLOAT = "float"
GAUSSIAN = "gaussian_integer"

REGIMES = (INTEGER, RATIONAL, FLOAT, GAUSSIAN)

# join table of the regime lattice; missing pair = incompatible
_JOIN = {
    (INTEGER, INTEGER): INTEGER,
    (INTEGER, RATIONAL): RATIONAL,
    (INTEGER, FLOAT): FLOAT,
    (INTEGER, GAUSSIAN): GAUSSIAN,
    (RATIONAL, RATIONAL): RATIONAL,
    (RATIONAL, FLOAT): FLOAT,
    (FLOAT, FLOAT): FLOAT,
    (GAUSSIAN, GAUSSIAN): GAUSSIAN,
}


class RegimeError(ValueError):
    """Scalars from incompatible regimes were combined, or a value does not
    fit its declared regime."""


class GaussianInteger:
    """Complex number with integer real and imaginary parts.

    Supports +, -, * with other GaussianIntegers and with plain ints; mixing
    with Fraction or float raises RegimeError (the grid Z + iZ embeds in no
    common regime with those).
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        if isinstance(re, bool) or isinstance(im, bool):
            raise RegimeError("bool is not a Gaussian integer component")
        if not isinstance(re, int) or not isinstance(im, int):
            raise RegimeError("Gaussian integer components must be int")
        self.re = re
        self.im = im

    def _lift(self, other):
        if isinstance(other, GaussianInteger):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return GaussianInteger(other, 0)
        raise RegimeError(
            "cannot combine gaussian_integer with %r" % type(other).__name__)

    def __add__(self, other):
        o = self._lift(other)
        return GaussianInteger(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return GaussianInteger(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        return GaussianInteger(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        return GaussianInteger(self.re * o.re - self.im * o.im,
                               self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianInteger(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianInteger):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int) and not isinstance(other, bool):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussianInteger(%d, %d)" % (self.re, self.im)

    def abs2(self):
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im


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
    if isinstance(x, GaussianInteger):
        return GAUSSIAN
    raise RegimeError("unsupported scalar type %r" % type(x).__name__)


def join_regimes(a, b):
    """Strongest common regime of a and b; RegimeError if none exists."""
    for name in (a, b):
        if name not in REGIMES:
            raise RegimeError("unknown regime %r" % (name,))
    r = _JOIN.get((a, b)) or _JOIN.get((b, a))
    if r is None:
        raise RegimeError("regimes %s and %s are incompatible" % (a, b))
    return r


def coerce(x, regime):
    """Coerce x into the given regime, exactly where the regime is exact."""
    src = regime_of(x)
    if join_regimes(src, regime) != regime:
        raise RegimeError("cannot coerce %s value into %s regime" % (src, regime))
    if regime == INTEGER:
        return int(x)
    if regime == RATIONAL:
        return Fraction(x) if not isinstance(x, Fraction) else x
    if regime == FLOAT:
        return float(x)
    if regime == GAUSSIAN:
        return x if isinstance(x, GaussianInteger) else GaussianInteger(int(x), 0)
    raise RegimeError("unknown regime %r" % (regime,))


def encode_scalar(x):
    """JSON encoding: int -> number, Fraction -> "p/q", float -> number,
    GaussianInteger -> [re, im]."""
    r = regime_of(x)
    if r == INTEGER:
        return x
    if r == RATIONAL:
        return "%d/%d" % (x.numerator, x.denominator)
    if r == FLOAT:
        return x
    return [x.re, x.im]


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
    if regime == GAUSSIAN:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return GaussianInteger(int(v[0]), int(v[1]))
        if isinstance(v, int) and not isinstance(v, bool):
            return GaussianInteger(v, 0)
        raise RegimeError("expected [re, im] encoding, got %r" % (v,))
    raise RegimeError("unknown regime %r" % (regime,))


def decode_scalar_any(v):
    """Scalar from JSON without a declared regime: numbers as written,
    strings as exact rationals, [re, im] pairs as Gaussian integers.

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
    if isinstance(v, (list, tuple)) and len(v) == 2 \
            and all(isinstance(c, int) and not isinstance(c, bool) for c in v):
        return GaussianInteger(v[0], v[1])
    raise ValueError("cannot decode scalar %r" % (v,))
