from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import schrod1d.polynomials as pl


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
    q, r = pl.pdivmod(f, g)
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
    parts = pl.yun_decomposition(f)
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
    expected = sum(pl.sign(pl.peval(g, r)) for r in roots if a < r <= b)
    assert pl.variations_at(chain, a) - pl.variations_at(chain, b) == expected


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


def test_cauchy_bound_contains_roots():
    f = pl.poly([-100, 0, 1])  # roots +-10
    b = pl.cauchy_bound(f)
    assert b > 10
