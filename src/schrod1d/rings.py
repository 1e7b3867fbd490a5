"""Unit-root coefficient grids and their validity as value rings.

A grid of order n is R = r Z + r^2 Z + ... + r^n Z with r = exp(2 pi i / n).
Such a grid is an admissible value ring for exact orbit arithmetic when

  (i)   it contains -1, 0, 1,
  (ii)  it is closed under addition and multiplication,
  (iii) 0 is an isolated point (no nonzero element with modulus < 1).

(i) and (ii) hold structurally for every unit-root grid (r^n = 1 supplies
the integers, and products of generators are generators again); validation
therefore reduces to (iii), decided by exhaustive search over bounded
coefficient vectors. Orders 1 and 2 give Z, order 4 gives Z + iZ, orders 3
and 6 give the triangular (honeycomb) grid; order 5 and every order above 6
fail (iii) because the grid accumulates near 0.

Squared moduli are exact integer quadratic forms for orders 1, 2, 3, 4, 6.
For orders 5, 7, 8 they are evaluated with mpmath at 60 significant digits;
a nonzero algebraic number of degree <= 6 built from coefficients this small
cannot sit within 1e-40 of 0 or 1, so the margin-based classification is
sound on the bounded search space.
"""

import math
from dataclasses import dataclass, field
from itertools import product

import mpmath

MAX_ORDER = 8
SEARCH_BOUND = 2  # coefficient bound of the isolation search
_EPS = mpmath.mpf("1e-40")

# generator powers r^1..r^n reduced to x + y*r for the quadratic orders
_QUADRATIC_TABLES = {
    3: [(0, 1), (-1, -1), (1, 0)],
    6: [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)],
}


@dataclass(frozen=True)
class RingSpec:
    """Order-n unit-root grid with exact element arithmetic.

    Elements are integer coefficient tuples of length n over the generators
    r^1 ... r^n (so the last coefficient multiplies r^n = 1).
    """

    order: int

    def __post_init__(self):
        if not isinstance(self.order, int) or isinstance(self.order, bool):
            raise ValueError("order must be an integer")
        if not (1 <= self.order <= MAX_ORDER):
            raise ValueError("order %r outside the representable range 1..%d"
                             % (self.order, MAX_ORDER))

    def element(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.order:
            raise ValueError("expected %d coefficients" % self.order)
        return coeffs

    def zero(self):
        return (0,) * self.order

    def one(self):
        e = [0] * self.order
        e[-1] = 1
        return tuple(e)

    def minus_one(self):
        e = [0] * self.order
        e[-1] = -1
        return tuple(e)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        """Product in the grid: r^(i+1) * r^(j+1) = r^(((i+j+1) mod n) + 1)."""
        n = self.order
        out = [0] * n
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj == 0:
                    continue
                out[(i + j + 1) % n] += ai * bj
        return tuple(out)

    @property
    def exact_modulus(self):
        return self.order in (1, 2, 3, 4, 6)

    def modulus_squared(self, coeffs):
        """|sum_k c_k r^k|^2; exact int for orders 1, 2, 3, 4, 6, else a
        60-digit mpmath value."""
        n = self.order
        if n == 1:
            return coeffs[0] * coeffs[0]
        if n == 2:
            s = coeffs[1] - coeffs[0]
            return s * s
        if n == 4:
            re = coeffs[3] - coeffs[1]
            im = coeffs[0] - coeffs[2]
            return re * re + im * im
        if n in (3, 6):
            a, b = self._reduce_quadratic(coeffs)
            if n == 3:
                return a * a - a * b + b * b
            return a * a + a * b + b * b
        with mpmath.workdps(60):
            roots = _unit_roots(n)
            return _modulus_squared_numeric(coeffs, roots)

    def _reduce_quadratic(self, coeffs):
        a = b = 0
        for c, (x, y) in zip(coeffs, _QUADRATIC_TABLES[self.order]):
            a += c * x
            b += c * y
        return a, b


def _unit_roots(n):
    return [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(1, n + 1)]


def _modulus_squared_numeric(coeffs, roots):
    s = mpmath.mpc(0)
    for c, r in zip(coeffs, roots):
        if c:
            s += c * r
    return s.real * s.real + s.imag * s.imag


@dataclass(frozen=True)
class RingValidation:
    valid: bool
    order: int
    reason: str
    witness: tuple = None
    witness_modulus: float = field(default=None)


def validate_ring(ring):
    """Check conditions (i)-(iii) for a RingSpec.

    All coefficient vectors with entries in [-SEARCH_BOUND, SEARCH_BOUND]
    are enumerated, smallest bound first, and any nonzero grid point with
    modulus strictly below 1 invalidates the grid. The witness coefficients
    are returned so the violation can be re-verified independently.
    """
    if not isinstance(ring, RingSpec):
        raise TypeError("expected a RingSpec")
    n = ring.order

    assert ring.mul(ring.one(), ring.one()) == ring.one()
    assert ring.mul(ring.minus_one(), ring.minus_one()) == ring.one()

    if ring.exact_modulus:
        for coeffs in _vectors_by_height(n):
            m2 = ring.modulus_squared(coeffs)
            if 0 < m2 < 1:
                return _violation(n, coeffs, float(m2))
        return _valid(n)

    with mpmath.workdps(60):
        roots = _unit_roots(n)
        for coeffs in _vectors_by_height(n):
            m2 = _modulus_squared_numeric(coeffs, roots)
            if m2 < _EPS:
                continue  # a vanishing combination, not a geometric violation
            if m2 < 1 - _EPS:
                return _violation(n, coeffs, float(m2))
    return _valid(n)


def _vectors_by_height(n):
    """Nonzero coefficient vectors ordered by max-abs entry (small first)."""
    for height in range(1, SEARCH_BOUND + 1):
        for coeffs in product(range(-height, height + 1), repeat=n):
            if max(abs(c) for c in coeffs) == height:
                yield coeffs


def _violation(n, coeffs, m2):
    return RingValidation(
        valid=False, order=n,
        reason="zero is not isolated: nonzero grid point with modulus below 1",
        witness=coeffs, witness_modulus=math.sqrt(m2))


def _valid(n):
    return RingValidation(
        valid=True, order=n,
        reason="grid contains -1, 0, 1, is closed under + and *, and 0 is "
               "isolated")
