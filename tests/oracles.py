"""Independent oracles the implementation is tested against.

Deliberately different algorithms from the package: determinants by
fraction-free Bareiss elimination on dense matrices, the golden-mean word
by explicit block concatenation, closed forms written out directly,
Fibonacci discriminants by the trace map instead of transfer products, and
the Sturm route over Q (Euclidean remainders with Fraction coefficients,
signs read from exact values) that the package's integer kernels replace,
Yun's square-free decomposition (Yun 1976) in place of the package's
gcd tower for counting roots with multiplicity, bands paired by the sign
of disc^2 - 4 between edges in place of root multiplicity, unit-root grid
moduli summed numerically at 60 digits in place of the exact value-ring
route,
the general (d, e) inertia recursion over numpy scalars in place of
LAPACK's count, sigma_min by that count and one index-selected stebz
bisection in place of the package's near window, a float shooting
match of the decaying solutions in place of the exact two-sided kernel
test over Q(sqrt D_L, sqrt D_R), and the Wronskian of the rational
Dirichlet orbit, one rebuilt potential per rotation, in place of the
package's walk of the Floquet direction over Q(sqrt D).
"""

from fractions import Fraction
from functools import lru_cache
from math import cos, hypot, lcm, pi, sqrt

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

import schrod1d.polynomials as pl
from schrod1d.potential import EventuallyPeriodicPotential, PeriodicPotential


def bareiss_determinant(rows):
    """Exact determinant of a square matrix of rationals.

    Rows are scaled to integers first; the integer part runs the classical
    fraction-free Bareiss recurrence (all intermediate divisions exact).
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    mult = 1
    m = []
    for row in rows:
        assert len(row) == n
        row = [Fraction(v) for v in row]
        scale = 1
        for v in row:
            scale = lcm(scale, v.denominator)
        mult *= scale
        m.append([int(v * scale) for v in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], mult)


def window(potential, lo, hi):
    """Values of a potential on the inclusive index range [lo, hi]."""
    return [potential.value(n) for n in range(lo, hi + 1)]


def reflection(p):
    """The eventually periodic potential n -> p.value(-n): the side words
    trade places, each read backwards, and the core reverses about 0."""
    return EventuallyPeriodicPotential(
        p.right_word[::-1], p.core[::-1], -(p.core_start + len(p.core) - 1),
        p.left_word[::-1])


def dense_section(potential, z, l, r):
    """The [l, r] section of H - z as a dense list-of-lists of Fractions."""
    size = r - l + 1
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(potential.value(l + i)) - Fraction(z)
        if i + 1 < size:
            rows[i][i + 1] = Fraction(1)
            rows[i + 1][i] = Fraction(1)
    return rows


def count_below(d, e, z):
    """Number of eigenvalues of the symmetric tridiagonal (d, e) below z,
    by the LDL^T inertia recursion with general off-diagonals e; a zero
    pivot is replaced by -1e-300."""
    cnt = 0
    q = 1.0
    for i in range(len(d)):
        off = (e[i - 1] * e[i - 1]) / q if i else 0.0
        q = (d[i] - z) - off
        if q == 0.0:
            q = -1e-300
        if q < 0:
            cnt += 1
    return cnt


def sigma_min_by_index(d, z):
    """sigma_min of S - z, S the section with diagonal d and unit
    off-diagonals: count the eigenvalues of S below z, then bisect the two
    next to z with index selection (stebz); a zero pivot counts as below."""
    k = count_below(d, np.ones(len(d) - 1), z)
    idx = sorted({max(0, k - 1), min(len(d) - 1, k)})
    ev = eigvalsh_tridiagonal(d, np.ones(len(d) - 1), select='i',
                              select_range=(idx[0], idx[-1]),
                              lapack_driver='stebz')
    return float(np.min(np.abs(ev - z)))


def golden_word(length):
    """Golden-mean substitution word by Fibonacci-block concatenation:
    blocks b1 = [1], b2 = [1, 0], b_{k+1} = b_k + b_{k-1}."""
    a, b = [1], [1, 0]
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def fibonacci_traces(a, b, count):
    """Words w_1, ..., w_count and their Floquet discriminants, ascending
    Fraction coefficient lists, by the Fibonacci trace map.

    w_1 = (b,), w_2 = (a,) and w_{k+1} = w_k w_{k-1}, so w_k has Fibonacci
    length. The one-period transfers then obey M_{k+1} = M_{k-1} M_k, and
    tr(AB) + tr(A B^-1) = tr A tr B for determinant-1 matrices gives
    t_{k+1} = t_k t_{k-1} - t_{k-2} (Kohmoto, Kadanoff & Tang 1983; Suto
    1987), from t_1 = z - b, t_2 = z - a and t_3 = (z - a)(z - b) - 2.
    """
    def mul(f, g):
        out = [Fraction(0)] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def sub(f, g):
        n = max(len(f), len(g))
        f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
        return [x - y for x, y in zip(f, g)]

    a, b = Fraction(a), Fraction(b)
    words = [(b,), (a,), (a, b)]
    traces = [[-b, 1], [-a, 1], sub(mul([-a, 1], [-b, 1]), [2])]
    while len(words) < count:
        words.append(words[-1] + words[-2])
        traces.append(sub(mul(traces[-1], traces[-2]), traces[-3]))
    return words[:count], traces[:count]


def constant4_eigenvalues(m):
    """Eigenvalues of the size-m section of the constant-4 potential."""
    return sorted(4 + 2 * cos(k * pi / (m + 1)) for k in range(1, m + 1))


def constant4_sigma_min(m):
    """sigma_min of the same section at z = 0."""
    return 4 - 2 * cos(pi / (m + 1))


# determinants of the constant-4 sections at z = 0, sizes 0..10, by the
# three-term recurrence d_k = 4 d_{k-1} - d_{k-2} evaluated by hand
CONSTANT4_DETERMINANTS = (1, 4, 15, 56, 209, 780, 2911, 10864, 40545,
                          151316, 564719)


def halfline_constant4_x0():
    """x_0 of the half-line solution of (H - 0) x = e_0 for v = 4."""
    return 2 - sqrt(3)


def fullline_constant4_x0():
    """x_0 of the full-line solution of (H - 0) x = e_0 for v = 4."""
    return 1 / sqrt(12)


def sign(x):
    """-1, 0 or 1 as the exact number x is negative, zero or positive."""
    return (x > 0) - (x < 0)


def pdivmod(a, b):
    """Euclidean division, exact over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    lb = b[-1]
    while len(r) >= len(b) and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        k = len(r) - len(b)
        f = r[-1] / lb
        q[k] = f
        for i in range(len(b)):
            r[k + i] -= f * b[i]
        r.pop()
    return pl.poly(q), pl.poly(r)


def fraction_sturm_chain(c, d=None):
    """Signed remainder sequence of (c, d) by Euclidean division over Q,
    d = c' by default; every element keeps its Fraction coefficients."""
    chain = [c, pl.pderiv(c) if d is None else d]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pl.pneg(rem))
    return [p for p in chain if p]


def fraction_variations_at(chain, x):
    """Sign variations of the chain's exact values at x, zeros skipped."""
    signs = [sign(pl.peval(p, x)) for p in chain]
    nonzero = [s for s in signs if s]
    return sum(1 for s, t in zip(nonzero, nonzero[1:]) if s != t)


def fraction_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm on Fractions."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pl.pmonic(a)


def fraction_square_free(c):
    """c / gcd(c, c'), monic, by division over Q."""
    if pl.degree(c) <= 0:
        return pl.pmonic(c)
    q, r = pdivmod(c, fraction_gcd(c, pl.pderiv(c)))
    assert not r
    return pl.pmonic(q)


def fraction_refine_root(c, lo, hi, width):
    """Bisect the square-free part of c on (lo, hi) down to width, with
    Fraction midpoints and exact values."""
    if lo == hi:
        return lo, hi
    f = fraction_square_free(c)
    slo = sign(pl.peval(f, lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = sign(pl.peval(f, mid))
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def sign_sampled_band_pairs(disc, edges):
    """(start, end) edge indices of each band, from the sign of disc^2 - 4
    at rational points between the ascending, disjoint edge intervals
    [(lo, hi), ...] and beyond them.

    A band starts where the sign turns negative and ends where it turns
    positive; a closed gap, negative on both sides, continues the band,
    and an edge positive on both sides is a degenerate band (i, i).
    """
    f = pl.psub(pl.pmul(disc, disc), pl.constant(4))
    points = ([edges[0][0] - 1]
              + [(a[1] + b[0]) / 2 for a, b in zip(edges, edges[1:])]
              + [edges[-1][1] + 1])
    signs = [sign(pl.peval(f, x)) for x in points]
    assert 0 not in signs and signs[0] == signs[-1] == 1
    pairs = []
    for i, (before, after) in enumerate(zip(signs, signs[1:])):
        if before > 0 > after:
            start = i
        elif before < 0 < after:
            pairs.append((start, i))
        elif before > 0 < after:
            pairs.append((i, i))
    return pairs


def yun_decomposition(c):
    """Square-free decomposition: list of (factor_i, multiplicity i), with
    c = lead * prod factor_i^i and the factors monic, square-free, coprime."""
    if pl.degree(c) <= 0:
        return []
    c = pl.pmonic(c)
    d = pl.pderiv(c)
    g = fraction_gcd(c, d)
    if pl.degree(g) == 0:
        return [(c, 1)]
    out = []
    b, _ = pdivmod(c, g)
    cpart, _ = pdivmod(d, g)
    i = 1
    while pl.degree(b) > 0:
        dpart = pl.psub(cpart, pl.pderiv(b))
        f = fraction_gcd(b, dpart)
        if pl.degree(f) > 0:
            out.append((f, i))
        b, _ = pdivmod(b, f)
        cpart, _ = pdivmod(dpart, f)
        i += 1
    return out


def yun_root_count(c):
    """Real roots of c counted with multiplicity: Yun's factors, each
    counted by its Fraction Sturm chain over its Cauchy bound."""
    total = 0
    for factor, mult in yun_decomposition(c):
        chain = fraction_sturm_chain(factor)
        bound = pl.cauchy_bound(factor)
        total += mult * (fraction_variations_at(chain, -bound)
                         - fraction_variations_at(chain, bound))
    return total


RING_DPS = 60
RING_MARGIN = mpmath.mpf("1e-40")


@lru_cache(maxsize=None)
def _unit_roots(n):
    with mpmath.workdps(RING_DPS):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * k) / n)
                     for k in range(1, n + 1))


def ring_modulus_squared(n, coeffs):
    """|sum_k c_k r^k|^2 with r = exp(2 pi i / n), summed at 60 digits."""
    with mpmath.workdps(RING_DPS):
        s = mpmath.mpc(0)
        for c, r in zip(coeffs, _unit_roots(n)):
            if c:
                s += c * r
        return s.real * s.real + s.imag * s.imag


def ring_modulus_class(n, coeffs):
    """Class of |sum_k c_k r^k| ("zero", "below_one" or "at_least_one"),
    read with a 1e-40 margin around 0 and 1."""
    m2 = ring_modulus_squared(n, coeffs)
    with mpmath.workdps(RING_DPS):
        if m2 < RING_MARGIN:
            return "zero"
        return "below_one" if m2 < 1 - RING_MARGIN else "at_least_one"


def _float_transfer(p, z, l, r):
    """Entries (a, b, c, d) of T_z(r) ... T_z(l) in floats."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for n in range(l, r + 1):
        t = z - float(p.value(n))
        a, b, c, d = c, d, t * c - a, t * d - b
    return a, b, c, d


def _decaying_direction(m, side):
    """Unit eigendirection of a det-1 2x2 transfer with |trace| > 2 and its
    eigenvalue: the contracting one for side "right", the expanding one for
    "left"."""
    a, b, c, d = m
    t = a + d
    if abs(t) <= 2:
        raise ValueError("the %s side needs z in a spectral gap "
                         "(|trace| > 2), got trace %r" % (side, t))
    s = 1.0 if t >= 0 else -1.0
    lam_big = (t + s * sqrt(t * t - 4.0)) / 2.0
    lam = (1.0 / lam_big) if side == "right" else lam_big
    v1 = (b, lam - a)
    v2 = (lam - d, c)
    v = v1 if hypot(*v1) >= hypot(*v2) else v2
    n = hypot(*v)
    return (v[0] / n, v[1] / n), lam


def full_line_kernel_scan(p, z):
    """Float shooting match for a kernel of H - z on the full line, for a
    periodic or eventually periodic potential with z in a spectral gap of
    both side words (ValueError otherwise).

    The solutions decaying at +inf and at -inf are transported to site 0
    with per-step renormalisation; returns the absolute matching
    determinant of their unit directions (below 1e-8: a kernel cannot be
    excluded) and the two Floquet multipliers.
    """
    if isinstance(p, PeriodicPotential):
        lw = rw = tuple(p.value(n) for n in range(p.period))
        lj = rj = 0
    else:
        lw, rw, lj, rj = p.left_word, p.right_word, p.core_start, p.right_start
    zf = float(z)

    def transport_to_zero(vec, site):
        x, y = vec
        n = site
        while n > 0:  # (x, y) holds (x_{n-1}, x_n); go down
            n -= 1
            x, y = (zf - float(p.value(n))) * x - y, x
            m = max(abs(x), abs(y))
            x, y = x / m, y / m
        while n < 0:  # go up
            x, y = y, (zf - float(p.value(n))) * y - x
            m = max(abs(x), abs(y))
            x, y = x / m, y / m
            n += 1
        h = hypot(x, y)
        return (x / h, y / h)

    r0 = max(rj, 0)
    u_plus, lam_r = _decaying_direction(
        _float_transfer(p, zf, r0, r0 + len(rw) - 1), "right")
    u_plus = transport_to_zero(u_plus, r0)
    l0 = min(lj, 0)
    u_minus, lam_l = _decaying_direction(
        _float_transfer(p, zf, l0 - len(lw), l0 - 1), "left")
    u_minus = transport_to_zero(u_minus, l0)
    det = abs(u_minus[0] * u_plus[1] - u_minus[1] * u_plus[0])
    return {"matching_det": det, "right_multiplier": lam_r,
            "left_multiplier": lam_l}


def _fraction_transfer(p, z, l, r):
    """Entries (a, b, c, d) of T_z(r) ... T_z(l) over Q."""
    z = Fraction(z)
    a, b, c, d = 1, 0, 0, 1
    for n in range(l, r + 1):
        t = z - Fraction(p.value(n))
        a, b, c, d = c, d, t * c - a, t * d - b
    return a, b, c, d


def halfline_wronskian_status(p, z, junction, period):
    """(status, multiplier) of the Dirichlet compression to [0, inf) of a
    potential that is periodic (period `period`) from site junction >= 0 on.

    The Dirichlet orbit x_{-1} = 0, x_0 = 1 is carried exactly to the
    junction; z is an eigenvalue iff the one-period transfer there maps it
    to lambda times itself (zero Wronskian) with |lambda| < 1. status is
    in_band, band_edge, invertible or eigenvalue; multiplier is lambda for
    an eigenvalue and None otherwise.
    """
    a, b, c, d = _fraction_transfer(p, z, junction, junction + period - 1)
    if abs(a + d) < 2:
        return "in_band", None
    if abs(a + d) == 2:
        return "band_edge", None
    u = _fraction_transfer(p, z, 0, junction - 1)[1::2]  # image of (0, 1)
    w = (a * u[0] + b * u[1], c * u[0] + d * u[1])
    if w[0] * u[1] - w[1] * u[0] != 0:
        return "invertible", None
    lam = w[0] / u[0] if u[0] else w[1] / u[1]
    return ("eigenvalue", lam) if abs(lam) < 1 else ("invertible", None)


def rotation_failures(word, z, compress):
    """[(r, status)] for the rotations of `word` whose one-sided compression
    is not invertible at z: compress "plus" cuts to [0, inf), "minus" to
    (-inf, -1], the plus cut of the reversed word. Each rotation is rebuilt
    as its own periodic potential and tested by halfline_wronskian_status.
    """
    w = tuple(reversed(word)) if compress == "minus" else tuple(word)
    out = []
    for r in range(len(w)):
        status, _ = halfline_wronskian_status(
            PeriodicPotential(w, r), z, 0, len(w))
        if status != "invertible":
            out.append((r, status))
    return out
