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

Squared moduli are decided exactly for every order. With t = 2 cos(2 pi / n)
and a_m = sum_{j - k = m mod n} c_j c_k, 2 |sum_k c_k r^k|^2 = sum_{m < n}
a_m C_m(t), where C_0 = 2, C_1 = t, C_{m+1} = t C_m - C_{m-1} are integer
polynomials (C_m(t) = r^m + r^-m). Reduced modulo the monic minimal
polynomial Psi_n of t (Watkins & Zeitlin 1993), that sum is an integer
polynomial P of degree below deg Psi_n, so x = 0 exactly when P = 0, and
|x| < 1 exactly when P - 2 is negative at t: read off a constant, or a Tarski
query on Psi_n over the isolating interval of its largest root, which is t.
"""

import math
from dataclasses import dataclass, field
from itertools import product

from . import polynomials as pl

MAX_ORDER = 8
SEARCH_BOUND = 2  # coefficient bound of the isolation search

# Psi_n, the monic minimal polynomial of t = 2 cos(2 pi / n), ascending
_MINIMAL = {1: (-2, 1), 2: (2, 1), 3: (1, 1), 4: (0, 1), 5: (-1, 1, 1),
            6: (-1, 1), 7: (-1, -2, 1, 1), 8: (-2, 0, 1)}


def _chebyshev_table(psi):
    """C_0 .. C_{MAX_ORDER - 1} as integer coefficient lists modulo psi."""
    def times_t(c):
        return [x - c[-1] * y for x, y in zip([0] + c[:-1], psi)]
    one = [1] + [0] * (len(psi) - 2)
    table = [[2 * x for x in one], times_t(one)]
    while len(table) < MAX_ORDER:
        table.append([x - y for x, y in zip(times_t(table[-1]), table[-2])])
    return table


_CHEBYSHEV = {n: _chebyshev_table(psi) for n, psi in _MINIMAL.items()}
# t is the largest root of Psi_n: its isolating interval
_ROOT = {n: pl.isolate_real_roots(pl.poly(psi))[-1]
         for n, psi in _MINIMAL.items()}


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

    def _twice_modulus_squared(self, coeffs):
        """P with P(t) = 2 |sum_k c_k r^k|^2, reduced modulo Psi_n."""
        n = self.order
        a = [0] * n
        for j, cj in enumerate(coeffs):
            for k, ck in enumerate(coeffs):
                a[(j - k) % n] += cj * ck
        table = _CHEBYSHEV[n]
        return [sum(am * cm[i] for am, cm in zip(a, table))
                for i in range(len(_MINIMAL[n]) - 1)]

    def modulus_squared(self, coeffs):
        """|sum_k c_k r^k|^2; exact int for orders 1, 2, 3, 4, 6, else a
        float from the exact reduced polynomial."""
        twice = self._twice_modulus_squared(coeffs)
        if len(twice) == 1:
            return twice[0] // 2
        t = 2 * math.cos(2 * math.pi / self.order)
        return sum(c * t ** i for i, c in enumerate(twice)) / 2

    def modulus_class(self, coeffs):
        """Exact class of |sum_k c_k r^k|: "zero", "below_one" or
        "at_least_one"."""
        twice = self._twice_modulus_squared(coeffs)
        if not any(twice):
            return "zero"
        twice[0] -= 2
        s = twice[0]
        if any(twice[1:]):
            chain = pl.tarski_chain(pl.poly(_MINIMAL[self.order]),
                                    pl.poly(twice))
            s = pl.sign_at_root(chain, *_ROOT[self.order])
        return "below_one" if s < 0 else "at_least_one"


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

    for coeffs in _vectors_by_height(n):
        if ring.modulus_class(coeffs) == "below_one":
            return RingValidation(
                valid=False, order=n,
                reason="zero is not isolated: nonzero grid point with "
                       "modulus below 1",
                witness=coeffs,
                witness_modulus=math.sqrt(ring.modulus_squared(coeffs)))
    return RingValidation(
        valid=True, order=n,
        reason="grid contains -1, 0, 1, is closed under + and *, and 0 is "
               "isolated")


def _vectors_by_height(n):
    """Nonzero coefficient vectors ordered by max-abs entry (small first)."""
    for height in range(1, SEARCH_BOUND + 1):
        for coeffs in product(range(-height, height + 1), repeat=n):
            if max(abs(c) for c in coeffs) == height:
                yield coeffs
