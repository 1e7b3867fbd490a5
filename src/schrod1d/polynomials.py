"""Dense univariate polynomials with exact rational coefficients.

Coefficient tuples are ascending (c[0] + c[1] x + ...), trailing zeros
trimmed, () is the zero polynomial. Values are exact Fractions; these
routines back the Floquet discriminants, the half-line matching polynomials
and the band-edge isolation, where floating point is not allowed to make
decisions.

Every decision on the root-finding path is a sign or a count of sign
variations, and a positive scale factor changes neither. So that path runs
on integers: `primitive` scales a polynomial to coprime integer
coefficients, `psign` reads the sign at a/b from the homogeneous form
sum c_i a^i b^(d-i), and Sturm chains and gcds are primitive pseudo-remainder
sequences over Z (Collins 1967; Brown & Traub 1971). Bisection points are
kept as integer numerators over a shared denominator, so no Fraction
arithmetic runs inside a bisection loop. `peval` stays the exact-value
evaluator.

`refine_root` may take a float guess. One exact Newton step from it names
the cell of the bisection tree the loop would end in, and the integer signs
at the two ends of that cell accept it; a guess only saves work, it never
decides the answer.

Root isolation bisects a tree of dyadic intervals over the Cauchy bound,
reading at each rational point only how many distinct roots lie above it
and whether the polynomial vanishes there, and splits until each interval
holds exactly one root. Any exact counter of those two answers gives the
same intervals. `spectral` passes counters that read them off one integer
run of the transfer recurrence; without one, the classical Sturm chain of
the polynomial counts sign variations. A Sturm chain counts distinct roots
whether or not the polynomial is square-free, and the roots of gcd(c, c')
are the multiple roots of c, so the gcd tower c, gcd(c, c'), ... counts
roots with multiplicity. Exact rational roots hit by a bisection midpoint
are returned as degenerate [r, r] intervals.
"""

from fractions import Fraction
from math import gcd, lcm

ZERO = ()
ONE = (Fraction(1),)


def poly(coeffs):
    """Normalize a coefficient iterable into a trimmed Fraction tuple."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def constant(x):
    return poly([x])


def degree(c):
    return len(c) - 1


def padd(a, b):
    n = max(len(a), len(b))
    return poly(( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n) ))


def psub(a, b):
    n = max(len(a), len(b))
    return poly(( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n) ))


def pneg(a):
    return tuple(-x for x in a)


def pmul(a, b):
    """Product over Q, convolved over Z after clearing denominators."""
    if not a or not b:
        return ZERO
    da, ia = _scaled(a)
    db, ib = _scaled(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(ia):
        if x:
            for j, y in enumerate(ib):
                out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    den = da * db
    return tuple(Fraction(x, den) for x in out)


def peval(c, x):
    """Horner evaluation at a Fraction (or int) point, exact."""
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def pderiv(c):
    return poly((i * c[i] for i in range(1, len(c))))


def pmonic(c):
    if not c:
        return ZERO
    lead = Fraction(c[-1])
    return tuple(x / lead for x in c)


def _scaled(c):
    """(den, integer coefficients n) with c = n / den, den > 0."""
    den = 1
    for x in c:
        den = lcm(den, x.denominator)
    return den, [x.numerator * (den // x.denominator) for x in c]


def primitive(c):
    """The positive multiple of c with coprime integer coefficients."""
    return _content_free(_scaled(c)[1])


def _content_free(ic):
    """Trimmed integer list divided by its (positive) content, as a tuple."""
    while ic and ic[-1] == 0:
        ic.pop()
    g = gcd(*ic)
    if g > 1:
        return tuple(x // g for x in ic)
    return tuple(ic)


def _ideriv(ic):
    return _content_free([i * ic[i] for i in range(1, len(ic))])


def _prem(a, b):
    """Primitive positive multiple of rem(a, b) over Q, for integer a, b.

    Pseudo-division by b with a positive leading coefficient multiplies a by
    lc^e > 0 only; when deg a < deg b the remainder is a itself.
    """
    if b[-1] < 0:
        b = tuple(-x for x in b)
    lb = b[-1]
    nb = len(b) - 1
    r = list(a)
    while len(r) > nb:
        lead = r.pop()
        if lead:
            k = len(r) - nb
            if lb != 1:
                r = [x * lb for x in r]
            for i in range(nb):
                r[k + i] -= lead * b[i]
    return _content_free(r)


def _igcd(a, b):
    """Primitive gcd of integer polynomials, by the primitive PRS."""
    while b:
        a, b = b, _prem(a, b)
    return a


def _iquo(a, b):
    """Exact quotient a / b of integer polynomials, b dividing a over Z."""
    lb = b[-1]
    nb = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - nb)
    for k in range(len(q) - 1, -1, -1):
        f = r.pop() // lb
        q[k] = f
        for i in range(nb):
            r[k + i] -= f * b[i]
    assert not any(r)
    return tuple(q)


def pgcd(a, b):
    """Monic gcd over Q, from a primitive remainder sequence over Z."""
    return pmonic(_igcd(primitive(a), primitive(b)))


def square_free(c):
    """Square-free part c / gcd(c, c'), monic."""
    if degree(c) <= 0:
        return pmonic(c)
    ic = primitive(c)
    g = _igcd(ic, _ideriv(ic))
    if len(g) > 1:
        ic = _iquo(ic, g)
    return pmonic(ic)


def real_root_count_with_multiplicity(c):
    """Number of real roots counted with multiplicity, exact: the distinct
    roots of each level of the gcd tower, all inside c's Cauchy bound."""
    bound = cauchy_bound(c)
    total = 0
    while degree(c) >= 1:
        chain = sturm_chain(c)
        total += variations_at(chain, -bound) - variations_at(chain, bound)
        c = pgcd(c, pderiv(c))
    return total


def sturm_chain(c, d=None):
    """Signed remainder sequence of (c, d), each element scaled to a
    primitive integer polynomial; d = c' (the default) gives the Sturm
    chain of c."""
    first = primitive(c)
    chain = [first, _ideriv(first) if d is None else primitive(d)]
    while chain[-1]:
        rem = _prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(pneg(rem))
    return [p for p in chain if p]


def _hval(ic, a, bpow):
    """sum ic[i] a^i b^(d-i) with bpow[j] = b^j: b^d times ic at a/b."""
    d = len(ic) - 1
    acc = ic[d]
    for i in range(d - 1, -1, -1):
        acc = acc * a + ic[i] * bpow[d - i]
    return acc


def _hsign(ic, a, bpow):
    """Sign of ic at a/b with bpow[j] = b^j, b > 0."""
    acc = _hval(ic, a, bpow)
    return (acc > 0) - (acc < 0)


def _powers(b, n):
    out = [1]
    for _ in range(n):
        out.append(out[-1] * b)
    return out


def psign(ic, x):
    """Sign of the integer polynomial ic at the rational x, exactly."""
    if not ic:
        return 0
    return _hsign(ic, x.numerator, _powers(x.denominator, len(ic) - 1))


def _sturm_at(chain, a, b):
    """(sign variations of the chain, sign of chain[0]) at a/b, b > 0."""
    if not chain:
        return 0, 0
    # only chain[1] can outgrow chain[0] (a Tarski chain); degrees then fall
    bpow = _powers(b, max(map(len, chain[:2])) - 1)
    signs = [_hsign(p, a, bpow) for p in chain]
    nonzero = [s for s in signs if s]
    return sum(s != t for s, t in zip(nonzero, nonzero[1:])), signs[0]


def variations_at(chain, x):
    return _sturm_at(chain, x.numerator, x.denominator)[0]


def tarski_chain(target, g):
    """Signed remainder sequence of (target, target' g), for sign_at_root;
    one chain answers the query for every root of target."""
    return sturm_chain(target, pmul(pderiv(target), g))


def sign_at_root(chain, lo, hi):
    """Sign of g at the unique root of `target` inside (lo, hi), for
    chain = tarski_chain(target, g).

    Tarski query (Sylvester's theorem): V(lo) - V(hi) over the signed
    remainder sequence of (target, target' g) sums the sign of g over the
    roots of target in (lo, hi), for lo and hi not roots. g must not vanish
    at the root.
    """
    s = variations_at(chain, lo) - variations_at(chain, hi)
    assert s in (1, -1)
    return s


def cauchy_bound(c):
    """Rational B with every real root strictly inside (-B, B)."""
    if degree(c) < 1:
        return Fraction(1)
    lead = abs(c[-1])
    m = max(abs(x) for x in c[:-1]) if len(c) > 1 else Fraction(0)
    return Fraction(1) + m / lead


def sturm_counter(c):
    """The Sturm chain of c as a root counter for isolate_real_roots.

    counter(a, d) returns (n, s) at x = a/d, d > 0: n is the number of
    distinct real roots of c above x and s the sign of c at x.
    """
    chain = sturm_chain(c)
    # the signs far right are those of the leading coefficients
    top = sum(f[-1] * g[-1] < 0 for f, g in zip(chain, chain[1:]))

    def counter(a, d):
        v, s = _sturm_at(chain, a, d)
        return v - top, s
    return counter


def isolate_real_roots(c, counter=None):
    """Disjoint isolating intervals for the distinct real roots of c.

    Returns an ordered list of (lo, hi) Fraction pairs; lo == hi marks an
    exact rational root, otherwise the open interval (lo, hi) contains
    exactly one distinct root of c and its endpoints are not roots.

    counter(a, d) -> (n, s) is the exact oracle the walk reads at x = a/d:
    n(x1) - n(x2) must be the number of distinct roots of c in (x1, x2],
    and s must be 0 exactly when c(a/d) = 0. The walk reads nothing else,
    so every exact counter gives the same intervals. The default is the
    Sturm chain of c.
    """
    if degree(c) <= 0:
        return []
    if counter is None:
        counter = sturm_counter(c)
    bound = cauchy_bound(c)
    out = []

    # an interval is (a, b, d, n(a/d), n(b/d), sign of c at b/d)
    def split_at_root(a, b, d, va, vb, sb):
        # the midpoint is an exact root: shrink a symmetric gap around it,
        # with points over den, until the gap holds only that root
        den, mid, w = 4 * d, 2 * (a + b), b - a
        while True:
            vx, sx = counter(mid - w, den)
            vy, sy = counter(mid + w, den)
            if sx and sy and vx - vy == 1:
                s = den // d
                return [(a * s, mid - w, den, va, vx, sx),
                        (mid + w, b * s, den, vy, vb, sb)]
            mid *= 2
            den *= 2

    n0, d0 = bound.numerator, bound.denominator
    vlo = counter(-n0, d0)[0]
    vhi, shi = counter(n0, d0)
    stack = [(-n0, n0, d0, vlo, vhi, shi)]
    while stack:
        a, b, d, va, vb, sb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1 and sb != 0:
            out.append((Fraction(a, d), Fraction(b, d)))
            continue
        m, d2 = a + b, 2 * d
        vm, sm = counter(m, d2)
        if sm == 0:
            r = Fraction(m, d2)
            out.append((r, r))
            stack.extend(split_at_root(a, b, d, va, vb, sb))
        else:
            stack.append((2 * a, m, d2, va, vm, sm))
            stack.append((m, 2 * b, d2, vm, vb, sb))
    out.sort(key=lambda iv: iv[0])
    return out


def refine_root(c, lo, hi, width, guess=None):
    """Bisect an isolating interval of a simple root down to the given width.

    Accepts degenerate [r, r] inputs unchanged. width is exact (Fraction).
    The interval holds one root of c, so when c changes sign across it
    bisecting c takes the same branches as bisecting its square-free part;
    only a root of even multiplicity needs square_free(c).

    A guess (a float, or any number with as_integer_ratio) may skip the
    bisection. Say the loop stops at depth k. One exact Newton step from the
    guess names a depth-k cell of (lo, hi); if the signs at its two ends are
    those at lo and at hi, both nonzero, the cell holds the root. No
    midpoint of a shallower level lies inside that cell, so the loop would
    end in it too, and it is returned. An end where the sign is 0 is the
    root r; it lies on the depth-k grid, so the loop would test it as a
    midpoint and return [r, r], and so does this path. With no guess, nan
    or inf, a cell out of range or a sign that does not match, the loop
    runs.
    """
    if lo == hi:
        return lo, hi
    f = primitive(c)
    slo, shi = psign(f, lo), psign(f, hi)
    if slo == 0 or shi == 0 or slo == shi:
        f = primitive(square_free(c))
        slo, shi = psign(f, lo), psign(f, hi)
        if slo == 0 or shi == 0 or slo == shi:
            raise ValueError("interval does not isolate a simple root")
    width = Fraction(width)
    # lo = a / d, hi = b / d; each step doubles d
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    if guess is not None:
        cell = _guided_cell(f, a, b, d, width, slo, shi, guess)
        if cell is not None:
            return cell
    while (b - a) * width.denominator > width.numerator * d:
        m, d = a + b, 2 * d
        sm = _hsign(f, m, _powers(d, len(f) - 1))
        if sm == 0:
            r = Fraction(m, d)
            return r, r
        if sm == slo:
            a, b = m, 2 * b
        else:
            a, b = 2 * a, m
    return Fraction(a, d), Fraction(b, d)


def _guided_cell(f, a, b, d, width, slo, shi, guess):
    """The last cell of bisecting (a/d, b/d) for the width, as a Fraction
    pair, if one Newton step from guess names it and the signs of f at its
    ends confirm it; [r, r] if an end is the root r; else None. b - a is
    the same at every depth."""
    try:
        n, m = guess.as_integer_ratio()
    except (ValueError, OverflowError):  # nan, inf
        return None
    w = b - a
    # depth k: the least k >= 0 with w / (d 2^k) <= width
    q = -(-w * width.denominator // (width.numerator * d))
    k = (q - 1).bit_length()
    if k == 0:
        return None
    # x = g - f(g)/f'(g) = num/den, from the homogeneous forms at n/m
    deg = len(f) - 1
    mpow = _powers(m, deg)
    dg = _hval([i * f[i] for i in range(1, deg + 1)], n, mpow)
    num, den = n, m
    if dg:
        num, den = n * dg - _hval(f, n, mpow), m * dg
    # depth-k cell index: floor((x - a/d) 2^k d / w)
    i = ((num * d - a * den) << k) // (den * w)
    if not 0 <= i < 1 << k:
        return None
    dk, left = d << k, (a << k) + i * w
    bpow = _powers(dk, deg)
    for end, want in ((left, slo), (left + w, shi)):
        s = _hsign(f, end, bpow)
        if s == 0:
            # an exact root on the depth-k grid is a midpoint the loop
            # would test, so it would return [r, r] too
            r = Fraction(end, dk)
            return r, r
        if s != want:
            return None
    return Fraction(left, dk), Fraction(left + w, dk)


def count_roots_in(c, lo, hi):
    """Distinct real roots of c inside the open interval (lo, hi), exact.

    Endpoints that happen to be roots are not counted.
    """
    f = square_free(c)
    if degree(f) <= 0:
        return 0
    chain = sturm_chain(f)
    vhi, shi = _sturm_at(chain, hi.numerator, hi.denominator)
    n = variations_at(chain, lo) - vhi
    if shi == 0:
        n -= 1
    return n
