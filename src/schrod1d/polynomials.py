"""Dense univariate polynomials with exact rational coefficients.

Coefficient tuples are ascending (c[0] + c[1] x + ...), trailing zeros
trimmed, () is the zero polynomial. Everything here is exact Fraction
arithmetic; these routines back the Floquet discriminants, the half-line
matching polynomials and the band-edge isolation, where floating point is
not allowed to make decisions.

Root isolation follows the classical Sturm bisection: build the Sturm chain
of the square-free part, count sign variations at rational points, split
until each interval holds exactly one root. Exact rational roots hit by a
bisection midpoint are returned as degenerate [r, r] intervals.
"""

from fractions import Fraction

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
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly(out)


def peval(c, x):
    """Horner evaluation at a Fraction (or int) point, exact."""
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def pderiv(c):
    return poly((i * c[i] for i in range(1, len(c))))


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
    return poly(q), poly(r)


def pmonic(c):
    if not c:
        return ZERO
    return tuple(x / c[-1] for x in c)


def pgcd(a, b):
    """Monic gcd over Q."""
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def square_free(c):
    """Square-free part c / gcd(c, c')."""
    if degree(c) <= 0:
        return pmonic(c) if c else ZERO
    g = pgcd(c, pderiv(c))
    if degree(g) <= 0:
        return pmonic(c)
    q, r = pdivmod(c, g)
    assert not r
    return pmonic(q)


def yun_decomposition(c):
    """Square-free decomposition: list of (factor_i, multiplicity i), with
    c = lead * prod factor_i^i and the factors monic, square-free, coprime."""
    if degree(c) <= 0:
        return []
    c = pmonic(c)
    d = pderiv(c)
    g = pgcd(c, d)
    out = []
    if degree(g) == 0:
        return [(c, 1)]
    b, _ = pdivmod(c, g)
    cpart, _ = pdivmod(d, g)
    i = 1
    while degree(b) > 0:
        dpart = psub(cpart, pderiv(b))
        f = pgcd(b, dpart)
        if degree(f) > 0:
            out.append((f, i))
        b, _ = pdivmod(b, f)
        cpart, _ = pdivmod(dpart, f)
        i += 1
    return out


def real_root_count_with_multiplicity(c):
    """Number of real roots counted with multiplicity, exact."""
    total = 0
    for factor, mult in yun_decomposition(c):
        chain = sturm_chain(factor)
        bound = cauchy_bound(factor)
        total += mult * _variation_diff(chain, -bound, bound)
    return total


def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def sturm_chain(c, d=None):
    """Signed remainder sequence of (c, d); with d = c' (the default) the
    Sturm chain of a (preferably square-free) polynomial."""
    chain = [c, pderiv(c) if d is None else d]
    while chain[-1]:
        rem = pdivmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(pneg(rem))
    return [p for p in chain if p]


def _variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def variations_at(chain, x):
    return _variations([sign(peval(p, x)) for p in chain])


def _variation_diff(chain, a, b):
    """Roots of chain[0] in (a, b]; requires chain[0](a) != 0."""
    return variations_at(chain, a) - variations_at(chain, b)


def cauchy_bound(c):
    """Rational B with every real root strictly inside (-B, B)."""
    if degree(c) < 1:
        return Fraction(1)
    lead = abs(c[-1])
    m = max(abs(x) for x in c[:-1]) if len(c) > 1 else Fraction(0)
    return Fraction(1) + m / lead


def isolate_real_roots(c):
    """Disjoint isolating intervals for the distinct real roots of c.

    Returns an ordered list of (lo, hi) Fraction pairs; lo == hi marks an
    exact rational root, otherwise the open interval (lo, hi) contains
    exactly one root of the square-free part and its endpoints are not roots.
    """
    f = square_free(c)
    if degree(f) <= 0:
        return []
    chain = sturm_chain(f)
    bound = cauchy_bound(f)
    out = []

    def nonroot_gap(mid, lo, hi):
        # shrink around an exact root until (mid-d, mid+d) holds only it
        d = (hi - lo) / 4
        while True:
            a, b = mid - d, mid + d
            if a > lo and b < hi and peval(f, a) != 0 and peval(f, b) != 0 \
                    and variations_at(chain, a) - variations_at(chain, b) == 1:
                return a, b
            d /= 2

    stack = [(-bound, bound, _variation_diff(chain, -bound, bound))]
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and peval(f, hi) != 0:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if peval(f, mid) == 0:
            out.append((mid, mid))
            a, b = nonroot_gap(mid, lo, hi)
            stack.append((lo, a, variations_at(chain, lo) - variations_at(chain, a)))
            stack.append((b, hi, variations_at(chain, b) - variations_at(chain, hi)))
        else:
            left = variations_at(chain, lo) - variations_at(chain, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, n - left))
    out.sort(key=lambda iv: iv[0])
    return out


def refine_root(c, lo, hi, width):
    """Bisect an isolating interval of a simple root down to the given width.

    Accepts degenerate [r, r] inputs unchanged. width is exact (Fraction).
    """
    if lo == hi:
        return lo, hi
    f = square_free(c)
    slo = sign(peval(f, lo))
    shi = sign(peval(f, hi))
    if slo == 0 or shi == 0 or slo == shi:
        raise ValueError("interval does not isolate a simple root")
    width = Fraction(width)
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = sign(peval(f, mid))
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def count_roots_in(c, lo, hi):
    """Distinct real roots of c inside the open interval (lo, hi), exact.

    Endpoints that happen to be roots are not counted.
    """
    f = square_free(c)
    if degree(f) <= 0:
        return 0
    chain = sturm_chain(f)
    n = variations_at(chain, lo) - variations_at(chain, hi)
    if peval(f, hi) == 0:
        n -= 1
    return n
