import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import schrod1d.polynomials as pl
import schrod1d.potential as pot
import schrod1d.transfer as tr
from schrod1d.scalars import RegimeError
from oracles import (CONSTANT4_DETERMINANTS, bareiss_determinant,
                     dense_section, fibonacci_traces)


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
small_ints = st.integers(min_value=-4, max_value=4)
words = st.lists(small_fracs, min_size=1, max_size=6)
int_words = st.lists(small_ints, min_size=1, max_size=6)


def test_single_step_matrix():
    m = tr.TransferMatrix.single(3, F(1, 2))
    assert m.entries() == (F(0), F(1), F(-1), F(1, 2) - 3)
    assert m.det() == 1


def test_identity_and_inverse():
    m = tr.TransferMatrix.single(2, 7)
    ident = tr.TransferMatrix.identity()
    assert (m.inverse() @ m).entries() == ident.entries()
    assert (m @ m.inverse()).entries() == ident.entries()
    bad = tr.TransferMatrix(2, 0, 0, 2)
    with pytest.raises(ValueError):
        bad.inverse()


def test_empty_product_is_identity():
    p = pot.periodic([1, 2, 3])
    m = tr.transfer_product(p, 0, 5, 4)
    assert m.entries() == (1, 0, 0, 1)


@given(words, small_fracs)
@settings(max_examples=80, deadline=None)
def test_transfer_is_unimodular(word, z):
    p = pot.periodic(word)
    m = tr.transfer_product(p, z, 0, len(word) - 1)
    assert m.det() == 1


@given(words, small_fracs, st.data())
@settings(max_examples=80, deadline=None)
def test_transfer_splits_at_any_site(word, z, data):
    p = pot.periodic(word)
    l, r = -3, 8
    mid = data.draw(st.integers(min_value=l, max_value=r))
    whole = tr.transfer_product(p, z, l, r)
    right = tr.transfer_product(p, z, mid + 1, r)
    left = tr.transfer_product(p, z, l, mid)
    assert (right @ left).entries() == whole.entries()


@given(words, small_fracs)
@settings(max_examples=60, deadline=None)
def test_transfer_moves_orbit_pairs(word, z):
    p = pot.periodic(word)
    orbit = tr.dirichlet_orbit(p, z, 8)
    for n in range(0, 8):
        vec = (orbit.value(n - 1), orbit.value(n))
        nxt = tr.TransferMatrix.single(p.value(n), orbit.z).apply(vec)
        assert nxt == (orbit.value(n), orbit.value(n + 1))


def test_monodromy_diagonal_example():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    m = tr.monodromy(p, 0)
    assert m.entries() == (F(2), F(0), F(0), F(1, 2))
    assert m.trace() == F(5, 2)


def test_monodromy_trace_reference_word():
    p = pot.periodic([1, 0, 1, 0, 1])
    m = tr.monodromy(p, 0)
    assert m.entries() == (0, 1, -1, -3)
    assert m.trace() == -3 and m.det() == 1
    # multipliers solve t^2 + 3t + 1 = 0
    lam = (-3 + math.sqrt(5)) / 2
    assert abs(lam * lam + 3 * lam + 1) < 1e-12


def test_transfer_orders_of_binary_steps():
    ident = tr.TransferMatrix.identity().entries()
    t0 = tr.TransferMatrix.single(0, 0)
    t1 = tr.TransferMatrix.single(1, 0)
    assert (t0 @ t0 @ t0 @ t0).entries() == ident
    assert (t1 @ t1 @ t1).entries() == ident


def test_orbit_halving_example():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    orbit = tr.dirichlet_orbit(p, 0, 30)
    for k in range(0, 11):
        assert orbit.value(3 * k) == F(1, 2 ** k)


def test_orbit_growth_constant_potential():
    p = pot.periodic([4])
    orbit = tr.dirichlet_orbit(p, 0, len(CONSTANT4_DETERMINANTS) - 1)
    for n, det in enumerate(CONSTANT4_DETERMINANTS):
        assert orbit.value(n) == (-1) ** n * det


@given(st.one_of(int_words, words), st.one_of(small_ints, small_fracs),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=100, deadline=None)
def test_orbit_is_signed_section_determinant(word, z, length):
    # x_n and det (H - z)[0, n - 1] obey the same three-term recursion up to
    # the sign (-1)^n, from x_0 = 1 = det of the empty section
    p = pot.periodic(word)
    orbit = tr.dirichlet_orbit(p, z, length)
    for n in range(length + 1):
        assert orbit.value(n) == \
            (-1) ** n * tr.finite_section_determinant(p, z, 0, n - 1)


def test_orbit_bounded_free_case():
    p = pot.periodic([0])
    orbit = tr.dirichlet_orbit(p, 0, 100)
    assert set(orbit.values) == {-1, 0, 1}


def test_orbit_rejects_short_length():
    with pytest.raises(ValueError):
        tr.dirichlet_orbit(pot.periodic([0]), 0, 0)


def test_constant4_section_determinants():
    p = pot.periodic([4])
    for size, ref in enumerate(CONSTANT4_DETERMINANTS):
        assert tr.finite_section_determinant(p, 0, 0, size - 1) == ref


def test_free_section_determinant_parity():
    p = pot.periodic([0])
    for size in range(0, 40):
        d = tr.finite_section_determinant(p, 0, 0, size - 1)
        if size % 2 == 1:
            assert d == 0
        else:
            assert d == (-1) ** (size // 2)


@given(words, small_fracs, st.integers(min_value=0, max_value=9),
       st.integers(min_value=-4, max_value=4))
@settings(max_examples=120, deadline=None)
def test_section_determinant_matches_dense_oracle(word, z, size, left):
    p = pot.periodic(word)
    l, r = left, left + size - 1
    got = tr.finite_section_determinant(p, z, l, r)
    ref = bareiss_determinant(dense_section(p, z, l, r))
    assert got == ref


def test_discriminant_reference_values():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    disc = tr.discriminant(p)
    assert disc.degree == 3 and disc.period == 3
    assert disc.coeffs[-1] == 1
    assert disc.value(0) == F(5, 2)


@given(words, small_fracs)
@settings(max_examples=60, deadline=None)
def test_discriminant_evaluates_to_trace(word, z):
    p = pot.periodic(word)
    disc = tr.discriminant(p)
    assert disc.value(z) == tr.monodromy(p, z).trace()


@given(words, small_fracs)
@settings(max_examples=60, deadline=None)
def test_symbolic_monodromy_matches_numeric(word, z):
    import schrod1d.polynomials as pl
    p = pot.periodic(word)
    m11, m12, m21, m22 = tr.symbolic_monodromy(p)
    m = tr.monodromy(p, z)
    assert (pl.peval(m11, F(z)), pl.peval(m12, F(z)),
            pl.peval(m21, F(z)), pl.peval(m22, F(z))) == m.entries()


def test_monodromy_requires_periodic():
    e = pot.explicit([1, 2], start=0)
    with pytest.raises(TypeError):
        tr.monodromy(e, 0)


def test_dirichlet_certificate_statuses():
    p = pot.periodic([4])
    in_gap = tr.monodromy_dirichlet_test(p, 0)
    assert in_gap.status == "gap_no_dirichlet"
    assert in_gap.trace == -4 and in_gap.det == 1
    assert in_gap.m12 != 0
    in_band = tr.monodromy_dirichlet_test(p, 4)
    assert in_band.status == "not_gap"


def test_dirichlet_certificate_input_checks():
    with pytest.raises(RegimeError):
        tr.monodromy_dirichlet_test(pot.periodic([F(1, 2)]), 0)
    with pytest.raises(RegimeError):
        tr.monodromy_dirichlet_test(pot.periodic([4]), 0.5)
    with pytest.raises(RegimeError):
        tr.monodromy_dirichlet_test(pot.periodic([4]), True)


def _bits(values):
    """Each value with floats by their exact bits, so 0 and 0.0, or 0.0
    and -0.0, differ."""
    return [x.hex() if isinstance(x, float) else x for x in values]


@given(st.one_of(st.tuples(int_words, small_fracs),
                 st.tuples(words, small_ints),
                 st.tuples(st.one_of(int_words, words),
                           st.floats(min_value=-4, max_value=4))),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=150, deadline=None)
def test_mixed_inputs_promote_like_the_regime_chain(word_z, l, size):
    # an int word with a Fraction z, a Fraction word with an int z, and an
    # exact word with a float z give what the joined regime gives: the
    # same computation with every entry converted to Fraction (exactly) or
    # to float (bit for bit) first
    word, z = word_z
    up = float if isinstance(z, float) else F
    p, p_up = pot.periodic(word), pot.periodic([up(v) for v in word])
    r = l + size - 1
    got = (tr.transfer_product(p, z, l, r).entries()
           + tr.dirichlet_orbit(p, z, size + 1).values
           + (tr.finite_section_determinant(p, z, l, r),))
    ref = (tr.transfer_product(p_up, up(z), l, r).entries()
           + tr.dirichlet_orbit(p_up, up(z), size + 1).values
           + (tr.finite_section_determinant(p_up, up(z), l, r),))
    if up is F:
        assert got == ref
        assert not any(isinstance(x, float) for x in got)
    else:
        assert _bits(got) == _bits(ref)
    for bad in (True, 1j, "1"):
        with pytest.raises(RegimeError):
            tr.transfer_product(p, bad, l, r)
        with pytest.raises(RegimeError):
            tr.dirichlet_orbit(p, bad, size + 1)
        with pytest.raises(RegimeError):
            tr.finite_section_determinant(p, bad, l, r)


@pytest.mark.parametrize("a, b", [(1, 0), (F(1, 2), -2)])
def test_discriminant_matches_fibonacci_trace_map(a, b):
    # periods 34, 55 and 89, where a Sturm chain of disc^2 - 4 is costly
    words, traces = fibonacci_traces(a, b, 11)
    for word, t in zip(words[8:], traces[8:]):
        d = tr.discriminant(pot.periodic(word))
        assert len(word) in (34, 55, 89)
        assert d.coeffs == pl.poly(t)
