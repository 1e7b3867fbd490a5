from fractions import Fraction as F

from hypothesis import assume, given, settings, strategies as st

import schrod1d.polynomials as pl
from oracles import (fraction_gcd, fraction_refine_root, fraction_square_free,
                     fraction_sturm_chain, fraction_variations_at, pdivmod,
                     sign, yun_decomposition, yun_root_count)


def frac(n, d=1):
    return F(n, d)


small_fracs = st.fractions(min_value=-5, max_value=5,
                           max_denominator=6)
polys = st.lists(small_fracs, min_size=0, max_size=6).map(pl.poly)


def test_basic_arithmetic():
    f = pl.poly([1, 2, 1])          # (x+1)^2
    g = pl.poly([-1, 1])            # x - 1
    assert pl.pmul(g, g) == pl.poly([1, -2, 1])
    assert pl.padd(f, pl.pneg(f)) == pl.ZERO
    q, r = pdivmod(f, g)
    assert pl.padd(pl.pmul(q, g), r) == f
    assert pl.degree(r) < pl.degree(g)


def test_peval_horner():
    f = pl.poly([3, 0, -2, 1])  # x^3 - 2x^2 + 3
    assert pl.peval(f, F(2)) == 3
    assert pl.peval(f, F(1, 2)) == F(3) - F(1, 2) + F(1, 8)


@given(polys, polys, small_fracs)
@settings(max_examples=60, deadline=None)
def test_mul_is_pointwise(f, g, x):
    assert pl.peval(pl.pmul(f, g), x) == pl.peval(f, x) * pl.peval(g, x)


def test_gcd_and_square_free():
    f = pl.pmul(pl.poly([-1, 1]), pl.poly([-1, 1]))      # (x-1)^2
    g = pl.pmul(pl.poly([-1, 1]), pl.poly([2, 1]))       # (x-1)(x+2)
    d = pl.pgcd(f, g)
    assert d == pl.pmonic(pl.poly([-1, 1]))
    sf = pl.square_free(pl.pmul(f, g))
    assert pl.degree(sf) == 2
    assert pl.peval(sf, F(1)) == 0 and pl.peval(sf, F(-2)) == 0


def test_yun_decomposition():
    # f = (x-1)^3 (x+2)^2 (x-3)
    f = pl.ONE
    for root, mult in [(1, 3), (-2, 2), (3, 1)]:
        for _ in range(mult):
            f = pl.pmul(f, pl.poly([-root, 1]))
    parts = yun_decomposition(f)
    by_mult = {m: g for g, m in parts if pl.degree(g) > 0}
    assert pl.peval(by_mult[3], F(1)) == 0
    assert pl.peval(by_mult[2], F(-2)) == 0
    assert pl.peval(by_mult[1], F(3)) == 0
    total = pl.real_root_count_with_multiplicity(f)
    assert total == 6


def test_sturm_chain_reference():
    # classical worked example: f = x^3 - x^2 + 2x - 3
    f = pl.poly([-3, 2, -1, 1])
    chain = pl.sturm_chain(f)
    assert chain[0] == f
    assert chain[1] == pl.pderiv(f)  # 3x^2 - 2x + 2
    # exactly one real root
    assert pl.real_root_count_with_multiplicity(f) == 1


def test_isolate_and_refine_sqrt2():
    f = pl.poly([-2, 0, 1])
    roots = pl.isolate_real_roots(f)
    assert len(roots) == 2
    (lo1, hi1), (lo2, hi2) = roots
    # open intervals: may share a non-root endpoint
    assert hi1 <= lo2
    if hi1 == lo2:
        assert pl.peval(f, hi1) != 0
    lo, hi = pl.refine_root(f, lo2, hi2, F(1, 10 ** 14))
    mid = (lo + hi) / 2
    assert abs(float(mid) - 2 ** 0.5) < 1e-12


def test_isolate_exact_rational_roots():
    # roots 1/2 (double) and -3; isolation plus refinement pins both
    f = pl.pmul(pl.pmul(pl.poly([F(-1, 2), 1]), pl.poly([F(-1, 2), 1])),
                pl.poly([3, 1]))
    roots = pl.isolate_real_roots(f)
    assert len(roots) == 2
    vals = []
    for lo, hi in roots:
        assert lo <= hi
        rlo, rhi = pl.refine_root(f, lo, hi, F(1, 10 ** 9))
        vals.append(float((rlo + rhi) / 2))
    assert abs(vals[0] + 3) < 1e-8 and abs(vals[1] - 0.5) < 1e-8


def test_count_roots_in():
    f = pl.poly([0, -4, 0, 1])  # x(x-2)(x+2)
    assert pl.count_roots_in(f, F(-3), F(3)) == 3
    assert pl.count_roots_in(f, F(0), F(3)) == 1  # open interval: 0 excluded
    assert pl.count_roots_in(f, F(1), F(3)) == 1
    assert pl.count_roots_in(f, F(3), F(5)) == 0


@given(st.lists(small_fracs, min_size=1, max_size=5, unique=True),
       polys, small_fracs, small_fracs)
@settings(max_examples=150, deadline=None)
def test_tarski_query_counts_signs(roots, g, a, b):
    # Sylvester: for a < b not roots of P, V(a) - V(b) over the signed
    # remainder sequence of (P, P'g) is the sum of sign g(r) over the roots
    # r of P in (a, b]
    assume(a < b and a not in roots and b not in roots)
    p = pl.ONE
    for r in roots:
        p = pl.pmul(p, pl.poly([-r, 1]))
    chain = pl.sturm_chain(p, pl.pmul(pl.pderiv(p), g))
    expected = sum(sign(pl.peval(g, r)) for r in roots if a < r <= b)
    assert pl.variations_at(chain, a) - pl.variations_at(chain, b) == expected
    # sign_at_root: the query over an interval isolating one root r
    for r in roots:
        if pl.peval(g, r) == 0:
            continue
        h = min([abs(r - s) for s in roots if s != r] + [F(1)]) / 2
        assert pl.sign_at_root(pl.tarski_chain(p, g), r - h, r + h) == \
            sign(pl.peval(g, r))


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                max_size=4))
@settings(max_examples=40, deadline=None)
def test_isolation_isolates_all_roots(int_roots):
    f = pl.ONE
    for r in int_roots:
        f = pl.pmul(f, pl.poly([-r, 1]))
    distinct = sorted(set(int_roots))
    intervals = pl.isolate_real_roots(f)
    assert len(intervals) == len(distinct)
    for (lo, hi), r in zip(intervals, distinct):
        assert lo <= r <= hi
    # ordered, pairwise disjoint as open intervals
    for (_, h1), (l2, _) in zip(intervals, intervals[1:]):
        assert h1 <= l2
    _assert_isolating(f, intervals)


def _assert_isolating(c, intervals):
    # each interval is an exact root or holds one distinct root of c, with
    # ends that are not roots; counted on the square-free part over Q
    sf = fraction_square_free(c)
    chain = fraction_sturm_chain(sf)
    for lo, hi in intervals:
        if lo == hi:
            assert pl.peval(c, lo) == 0
        else:
            assert pl.peval(c, lo) != 0 and pl.peval(c, hi) != 0
            assert fraction_variations_at(chain, lo) \
                - fraction_variations_at(chain, hi) == 1


# rational polynomials with repeated and rational roots: a nonzero scalar
# (either sign) times prod (x - r)^m times a random cofactor
rational_roots = st.lists(st.tuples(small_fracs, st.integers(1, 3)),
                          min_size=0, max_size=3)
nonzero_fracs = small_fracs.filter(lambda x: x != 0)


@st.composite
def rooted_polys(draw):
    roots = draw(rational_roots)
    p = pl.constant(draw(nonzero_fracs))
    for r, m in roots:
        for _ in range(m):
            p = pl.pmul(p, pl.poly([-r, 1]))
    p = pl.pmul(p, draw(polys.filter(bool)))
    return p, [r for r, _ in roots]


def _points(c, roots, extra):
    # roots, the Cauchy bound (non-dyadic in general), midpoints of roots
    # and arbitrary rationals
    b = pl.cauchy_bound(c)
    pts = set(roots) | set(extra) | {b, -b, b / 3}
    pts |= {(r + s) / 2 for r, s in zip(roots, roots[1:])}
    return sorted(pts)


@given(rooted_polys())
@settings(max_examples=100, deadline=None)
def test_isolation_of_non_square_free_polys(cr):
    c, _ = cr
    intervals = pl.isolate_real_roots(c)
    _assert_isolating(c, intervals)
    sf = fraction_square_free(c)
    chain = fraction_sturm_chain(sf)
    b = pl.cauchy_bound(sf)
    assert len(intervals) == fraction_variations_at(chain, -b) \
        - fraction_variations_at(chain, b)


@st.composite
def factored_polys(draw):
    # rational linear factors of multiplicity 1-3 times random quadratics,
    # whose roots may be real, repeated or complex
    p = pl.constant(draw(nonzero_fracs))
    for r, m in draw(st.lists(st.tuples(small_fracs, st.integers(1, 3)),
                              max_size=4)):
        for _ in range(m):
            p = pl.pmul(p, pl.poly([-r, 1]))
    for _ in range(draw(st.integers(0, 2))):
        q = draw(st.tuples(small_fracs, small_fracs, nonzero_fracs))
        p = pl.pmul(p, pl.poly(q))
    return p


@given(factored_polys())
@settings(max_examples=200, deadline=None)
def test_gcd_tower_counts_like_yun(c):
    assert pl.real_root_count_with_multiplicity(c) == yun_root_count(c)


@given(rooted_polys(), st.lists(small_fracs, max_size=4))
@settings(max_examples=150, deadline=None)
def test_psign_matches_exact_value(cr, extra):
    c, roots = cr
    ic = pl.primitive(c)
    assert all(isinstance(x, int) for x in ic)
    assert sign(ic[-1]) == sign(c[-1])
    for x in _points(c, roots, extra):
        assert pl.psign(ic, x) == sign(pl.peval(c, x))


@given(rooted_polys(), st.one_of(st.none(), polys), st.booleans(),
       st.lists(small_fracs, max_size=4))
@settings(max_examples=150, deadline=None)
def test_integer_chain_matches_fraction_chain(cr, g, tarski, extra):
    # default chain (c, c'), a Tarski chain (c, c' g), and a second element
    # of any degree (g alone), which may outgrow c: then the first remainder
    # is c itself and no sign may flip
    c, roots = cr
    d = None if g is None else \
        (pl.pmul(pl.pderiv(c), g) if tarski else g)
    chain = pl.sturm_chain(c, d)
    oracle = fraction_sturm_chain(c, d)
    assert chain == [pl.primitive(p) for p in oracle]
    for x in _points(c, roots, extra):
        assert pl.variations_at(chain, x) == fraction_variations_at(oracle, x)


def test_chain_second_element_of_higher_degree():
    # deg d > deg c with lc(d) < 0: delta + 1 <= 0, the remainder of c by d
    # is c, and the third element is -c, not c
    c = pl.poly([-2, 0, 1])
    d = pl.poly([1, 0, 3, 0, -1])
    chain = pl.sturm_chain(c, d)
    assert chain[2] == pl.primitive(pl.pneg(c))
    assert chain == [pl.primitive(p) for p in fraction_sturm_chain(c, d)]


@given(rooted_polys(), rooted_polys())
@settings(max_examples=100, deadline=None)
def test_gcd_and_square_free_match_fraction_route(a, b):
    (a, _), (b, _) = a, b
    assert pl.pgcd(a, b) == fraction_gcd(a, b)
    assert pl.pgcd(a, pl.ZERO) == fraction_gcd(a, pl.ZERO)
    assert pl.square_free(a) == fraction_square_free(a)


@given(rooted_polys())
@settings(max_examples=60, deadline=None)
def test_refine_root_matches_fraction_bisection(cr):
    # odd multiplicities bisect c itself, even ones its square-free part;
    # both give the bisection of the square-free part over Q
    c, _ = cr
    width = F(1, 2 ** 20)
    for lo, hi in pl.isolate_real_roots(c):
        assert pl.refine_root(c, lo, hi, width) == \
            fraction_refine_root(c, lo, hi, width)


@given(rooted_polys())
@settings(max_examples=60, deadline=None)
def test_refine_root_guess_changes_nothing(cr):
    # a guess may only save work: whatever it is, the interval is the one
    # bisection gives, with or without a guess, and over Q
    c, exact_roots = cr
    width = F(1, 2 ** 60)
    intervals = pl.isolate_real_roots(c)
    floats = [float((lo + hi) / 2) if lo == hi else
              float(sum(fraction_refine_root(c, lo, hi, F(1, 2 ** 70))) / 2)
              for lo, hi in intervals]
    for (lo, hi), r in zip(intervals, floats):
        expected = fraction_refine_root(c, lo, hi, width)
        assert pl.refine_root(c, lo, hi, width) == expected
        guesses = [r, r + 1e-9, r - 1e-9, lo, hi, float(lo), float(hi),
                   float(hi) + 1.0, float(lo) - 1000.0, float("nan"),
                   float("inf"), float("-inf")]
        guesses += [s for s in floats if s != r]
        guesses += [x for x in exact_roots if lo <= x <= hi]
        for g in guesses:
            assert pl.refine_root(c, lo, hi, width, guess=g) == expected, g


def test_refine_root_guess_at_a_bisection_tree_point(monkeypatch):
    # 5/16 is a depth-4 midpoint of (0, 1): the guided cell has it as an
    # end, and the answer is the exact root, as without a guess; a close
    # guess needs the signs at 0 and 1 and at most two more, bisection four
    c = pl.pmul(pl.poly([F(-5, 16), 1]), pl.poly([-7, 1]))
    width = F(1, 2 ** 20)
    r = F(5, 16)
    assert fraction_refine_root(c, F(0), F(1), width) == (r, r)
    hsign, signs = pl._hsign, []

    def counting_hsign(*args):
        signs.append(args)
        return hsign(*args)
    monkeypatch.setattr(pl, "_hsign", counting_hsign)
    close = (r, 0.3125, 0.3125 + 1e-12, 0.3125 - 1e-12)
    for g in (None, 0.3, 0.0, 1.0, 7.0) + close:
        signs.clear()
        assert pl.refine_root(c, F(0), F(1), width, guess=g) == (r, r), g
        assert len(signs) <= 4 if g in close else len(signs) >= 6, g


def test_cauchy_bound_contains_roots():
    f = pl.poly([-100, 0, 1])  # roots +-10
    b = pl.cauchy_bound(f)
    assert b > 10
