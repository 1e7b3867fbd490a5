"""Exact transfer-matrix algebra for the discrete Schrodinger operator.

The operator acts as (H x)_n = x_{n-1} + v(n) x_n + x_{n+1}. A solution of
(H - z) x = 0 obeys the one-step recursion

    (x_n, x_{n+1})^T = T_z(n) (x_{n-1}, x_n)^T,
    T_z(n) = [[0, 1], [-1, z - v(n)]],

so at z = 0 the matrix is [[0, 1], [-1, -v(n)]]. All matrices here have
determinant 1 exactly. Products, Dirichlet orbits and section determinants
run on the potential values and the spectral parameter as they come:
Python's promotion int < Fraction < float is the regime chain of scalars.py,
so exact inputs give exact results and any float input a float result.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import polynomials as pl
from .potential import PeriodicPotential
from .scalars import INTEGER, RATIONAL, RegimeError, regime_of, to_exact


@dataclass(frozen=True)
class TransferMatrix:
    """2x2 matrix [[a, b], [c, d]] over any scalar regime."""

    a: object
    b: object
    c: object
    d: object

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def single(cls, v, z):
        """One-step matrix [[0, 1], [-1, z - v]]."""
        for x in (v, z):
            regime_of(x)  # RegimeError unless both are scalars
        return cls(0, 1, -1, z - v)

    def __matmul__(self, other):
        return TransferMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def inverse(self):
        """Inverse of a determinant-1 matrix, exact."""
        if self.det() != 1:
            raise ValueError("inverse implemented for unimodular matrices only")
        return TransferMatrix(self.d, -self.b, -self.c, self.a)

    def apply(self, vec):
        x, y = vec
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def entries(self):
        return (self.a, self.b, self.c, self.d)


def transfer_product(p, z, l, r):
    """T_z(r) ... T_z(l), the transfer across sites l..r (identity if r < l)."""
    regime_of(z)  # RegimeError unless z is a scalar
    a, b, c, d = 1, 0, 0, 1
    for n in range(l, r + 1):
        t = z - p.value(n)
        # [[0, 1], [-1, t]] @ [[a, b], [c, d]]
        a, b, c, d = c, d, t * c - a, t * d - b
    return TransferMatrix(a, b, c, d)


def monodromy(p, z):
    """Transfer over one full period starting at index 0."""
    if not isinstance(p, PeriodicPotential):
        raise TypeError("monodromy needs a periodic potential")
    return transfer_product(p, z, 0, p.period - 1)


@dataclass(frozen=True)
class DirichletOrbit:
    """Solution of (H - z) x = 0 with x_{-1} = 0, x_0 = 1 on [-1, N]."""

    z: object
    values: tuple  # x_{-1}, x_0, ..., x_N

    def value(self, n):
        return self.values[n + 1]


def dirichlet_orbit(p, z, length):
    """Propagate the Dirichlet orbit x_{-1} = 0, x_0 = 1 up to x_length.

    x_{n+1} = (z - v(n)) x_n - x_{n-1} on the values as they come, so the
    orbit is exact when the potential and z are.
    """
    if length < 1:
        raise ValueError("orbit length must be at least 1")
    regime_of(z)  # RegimeError unless z is a scalar
    xs = [0, 1]
    for n in range(length):
        xs.append((z - p.value(n)) * xs[-1] - xs[-2])
        # float rounding can cancel to two zeros; exact values never do
        assert isinstance(xs[-1], float) or xs[-1] != 0 or xs[-2] != 0, \
            "consecutive orbit zeros are impossible for det-1 transfers"
    return DirichletOrbit(z=z, values=tuple(xs))


def finite_section_determinant(p, z, l, r):
    """det of the section of H - z on [l, r], by the tridiagonal recursion
    d_n = (v(n) - z) d_{n-1} - d_{n-2}; exact when the potential and z are.

    The empty section (r < l) has determinant 1.
    """
    regime_of(z)  # RegimeError unless z is a scalar
    prev, cur = 0, 1
    for n in range(l, r + 1):
        prev, cur = cur, (p.value(n) - z) * cur - prev
    return cur


@dataclass(frozen=True)
class Discriminant:
    """Floquet discriminant: trace of the symbolic one-period transfer.

    coeffs are exact Fractions, ascending; the polynomial is monic of degree
    equal to the period. word is the period read as v(0), ..., v(period - 1)
    and monodromy the symbolic transfer (m11, m12, m21, m22) it is the trace
    of: `spectral.bands` counts and guesses edges from the word, and
    `spectral.dirichlet_eigenvalues` reads m12 and m22. Neither is compared
    or serialised. `discriminant` builds it.
    """

    period: int
    coeffs: tuple
    word: tuple = field(compare=False, repr=False)
    monodromy: tuple = field(compare=False, repr=False)

    def value(self, z):
        return pl.peval(self.coeffs, to_exact(z))

    @property
    def degree(self):
        return pl.degree(self.coeffs)


def symbolic_monodromy(p):
    """One-period transfer with polynomial entries in z, exact over Q.

    Returns (m11, m12, m21, m22) as Fraction coefficient tuples, for the
    product T_z(period - 1) ... T_z(0).
    """
    if not isinstance(p, PeriodicPotential):
        raise TypeError("symbolic monodromy needs a periodic potential")
    if p.regime not in (INTEGER, RATIONAL):
        raise RegimeError("symbolic monodromy needs an exact rational regime")
    m11, m12, m21, m22 = pl.ONE, pl.ZERO, pl.ZERO, pl.ONE
    for n in range(p.period):
        t22 = pl.poly([-Fraction(p.value(n)), 1])  # z - v(n)
        # [[0,1],[-1,t22]] @ [[m11,m12],[m21,m22]]
        n11, n12 = m21, m22
        n21 = pl.psub(pl.pmul(t22, m21), m11)
        n22 = pl.psub(pl.pmul(t22, m22), m12)
        m11, m12, m21, m22 = n11, n12, n21, n22
    return m11, m12, m21, m22


def discriminant(p):
    """Floquet discriminant of a periodic potential, exact.

    Monic of degree = period; its value at rational z equals the trace of
    the numeric one-period transfer there.
    """
    m = symbolic_monodromy(p)
    coeffs = pl.padd(m[0], m[3])
    assert pl.degree(coeffs) == p.period
    assert coeffs[-1] == 1
    return Discriminant(period=p.period, coeffs=coeffs,
                        word=tuple(p.value(n) for n in range(p.period)),
                        monodromy=m)


@dataclass(frozen=True)
class MonodromyDirichletResult:
    """Outcome of the integer no-Dirichlet-eigenvalue certificate at z."""

    status: str  # not_gap | gap_no_dirichlet
    z: int
    trace: int
    m11: int
    m12: int
    m21: int
    m22: int
    det: int


def monodromy_dirichlet_test(p, z):
    """Certify that integer z is no Dirichlet eigenvalue of the half-line
    compression of an integer periodic potential.

    The half-line operator (Dirichlet condition at -1) has z as an eigenvalue
    iff M12(z) = 0 and |M22(z)| < 1 for the period transfer M aligned at 0.
    With integer entries and det M = 1, M12 = 0 forces M11 M22 = 1, hence
    |M22| = 1, so the criterion can never hold: in a gap (|trace| > 2) the
    result is gap_no_dirichlet, carrying the witness entries. Over Z,
    M12 = 0 in fact forces |trace| = |M11 + M22| = 2, so in a gap M12 is
    never 0.
    """
    if not isinstance(p, PeriodicPotential) or p.regime != INTEGER:
        raise RegimeError("certificate requires an integer periodic potential")
    if regime_of(z) != INTEGER:
        raise RegimeError("certificate requires an integer spectral parameter")
    m = monodromy(p, z)
    tr = m.trace()
    det = m.det()
    assert det == 1
    if abs(tr) <= 2:
        status = "not_gap"
    else:
        assert m.b != 0
        status = "gap_no_dirichlet"
    return MonodromyDirichletResult(status=status, z=z, trace=tr,
                                    m11=m.a, m12=m.b, m21=m.c, m22=m.d,
                                    det=det)
