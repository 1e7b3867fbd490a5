import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import schrod1d.limitops as lo
import schrod1d.potential as pot
import schrod1d.transfer as tr
from schrod1d.prng import CounterRng
from schrod1d.scalars import RegimeError
from oracles import full_line_kernel_scan


def distance_to(ess, z):
    """Float distance from z to the essential spectrum, side by side."""
    return min(bs.distance_to_spectrum(z) for bs in ess.side_bands.values())


def failed_keys(rep):
    return tuple(k for k, c in rep.conditions.items() if c.holds is False)


def kernel_example():
    return pot.eventually_periodic(
        left_word=(1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1),
        core=(), core_start=0,
        right_word=(1, 0, 1, 0, 1))


def test_limit_operator_rotations():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    ops = lo.limit_operators(p, side="right")
    assert len(ops) == 3  # the three distinct rotations
    words = {tuple(op.potential.value(n) for n in range(3)) for op in ops}
    assert words == {(F(1, 2), 2, F(1, 2)), (2, F(1, 2), F(1, 2)),
                     (F(1, 2), F(1, 2), 2)}


def test_limit_operator_dedup():
    # constant word: one operator per side, all residues collected
    ops = lo.limit_operators(pot.periodic([7, 7, 7]))
    assert len(ops) == 2
    for op in ops:
        assert op.residues == (0, 1, 2)


def test_limit_operator_counts_two_sided():
    ops = lo.limit_operators(kernel_example())
    left = [op for op in ops if op.side == "left"]
    right = [op for op in ops if op.side == "right"]
    assert len(left) == 12 and len(right) == 5


def test_essential_spectrum_union():
    p = pot.eventually_periodic([0], [3], 0, [4])
    ess = lo.essential_spectrum(p)
    # side bands [-2, 2] and [2, 6] touch and merge
    assert ess.intervals == ((-2.0, 6.0),)
    assert ess.contains(0) and ess.contains(5) and ess.contains(2)
    assert not ess.contains(F(13, 2))
    assert distance_to(ess, 7) == 1.0


def test_essential_spectrum_disjoint_sides():
    p = pot.eventually_periodic([0], [], 0, [8])
    ess = lo.essential_spectrum(p)
    assert ess.intervals == ((-2.0, 2.0), (6.0, 10.0))
    assert not ess.contains(4)
    assert distance_to(ess, 4) == 2.0


def test_fredholm_full_line():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    at_gap = lo.is_fredholm(p, 0)
    assert at_gap.fredholm and at_gap.witness_side is None
    in_band = lo.is_fredholm(pot.periodic([4]), 4)
    assert not in_band.fredholm
    assert in_band.side_position[in_band.witness_side] == "band"
    at_edge = lo.is_fredholm(pot.periodic([4]), 2)
    assert not at_edge.fredholm and at_edge.at_band_edge


def test_fredholm_half_line_sees_right_only():
    p = pot.eventually_periodic([0], [], 0, [4])
    # z = 0 is in the left band but in a gap of the right word
    assert not lo.is_fredholm(p, 0, "full_line").fredholm
    assert lo.is_fredholm(p, 0, "half_line").fredholm


def test_halfline_invertibility_statuses():
    assert lo.halfline_invertible(pot.periodic([4]), 0).status == "invertible"
    assert lo.halfline_invertible(pot.periodic([4]), 3).status == "in_band"
    assert lo.halfline_invertible(pot.periodic([4]), 2).status == "band_edge"
    res = lo.halfline_invertible(pot.periodic([F(1, 2), 2, F(1, 2)]), 0)
    assert res.status == "eigenvalue"
    assert not res.invertible
    assert res.detail["wronskian"] == 0
    assert res.detail["multiplier"] == F(1, 2)


def test_integer_word_at_integer_z_stays_in_int_arithmetic():
    # the trace runs on ints; only the Dirichlet data are Fractions, so the
    # multiplier division stays exact
    res = lo.halfline_invertible(pot.periodic([3, -1]), 0)
    assert res.status == "invertible"
    assert type(res.detail["disc"]) is int and res.detail["disc"] == -5
    assert type(res.detail["wronskian"]) is F


def test_applicability_constant_gap_point():
    rep = lo.fsm_applicability(pot.periodic([4]), 0)
    assert rep.operator == "full_line"
    assert set(rep.conditions) == {"a", "b", "c"}
    assert all(c.holds is True for c in rep.conditions.values())
    assert rep.applicable is True
    assert failed_keys(rep) == ()


def test_applicability_halfline_eigenvalue_blocks():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    rep = lo.fsm_applicability(p, 0, operator="half_line")
    assert set(rep.conditions) == {"d", "e"}
    assert rep.conditions["d"].holds is False
    assert rep.applicable is False
    assert "d" in failed_keys(rep)
    # the same defect breaks one rotation compression on the full line
    full = lo.fsm_applicability(p, 0)
    assert full.conditions["b"].holds is False
    assert full.applicable is False


def test_applicability_two_sided_kernel_decided():
    p = kernel_example()
    rep = lo.fsm_applicability(p, 0)
    assert rep.conditions["b"].holds is True
    assert rep.conditions["c"].holds is True
    assert rep.conditions["a"].holds is False
    assert rep.applicable is False
    scan = full_line_kernel_scan(p, 0)
    assert scan["matching_det"] < 1e-12
    lam = (-3 + math.sqrt(5)) / 2
    assert abs(scan["right_multiplier"] - lam) < 1e-12
    assert abs(abs(scan["left_multiplier"]) - (3 + math.sqrt(5)) / 2) < 1e-12


def test_kernel_scan_clear_for_constant():
    scan = full_line_kernel_scan(pot.periodic([4]), 0)
    assert scan["matching_det"] > 1e-2


@pytest.mark.parametrize("p", [
    pot.periodic([1, 0, 1]),  # z = 0 at a band edge: trace 2
    pot.explicit([1, 2])],  # z = 0 inside the band [-2, 2] of the 0 word
    ids=["band-edge", "in-band"])
def test_kernel_scan_needs_a_gap(p):
    with pytest.raises(ValueError, match="spectral gap"):
        full_line_kernel_scan(p, 0)


def _kernel_cases():
    ex = kernel_example()
    cases = [pytest.param(ex, 0, False, id="example-4-2"),
             pytest.param(pot.reflect(ex), 0, False,
                          id="example-4-2-reflected")]
    cases += [pytest.param(pot.shift(ex, k), 0, False,
                           id="example-4-2-shift%d" % k)
              for k in (-40, -7, -1, 1, 5, 12, 40)]
    # one site 3/2 in the free word: x(n) = 2^-|n - s| at z = 5/2, where
    # D = 9/4 is a square
    cases += [pytest.param(pot.explicit([F(3, 2)], s, 0), F(5, 2), False,
                           id="explicit-three-halves-at-%d" % s)
              for s in (-3, 0, 4)]
    # m12 = m21 = 0 at z = 0 on both sides: M(0) = diag(2, 1/2)
    cases.append(pytest.param(pot.periodic([F(1, 2), 2, F(1, 2)]), 0, True,
                              id="example-4-1-word"))
    cases.append(pytest.param(pot.explicit([F(3, 2)]), F(7, 3), True,
                              id="explicit-three-halves-off-eigenvalue"))
    return cases


@pytest.mark.parametrize("p,z,invertible", _kernel_cases())
def test_full_line_kernel_decided_exactly(p, z, invertible):
    cond = lo.fsm_applicability(p, z).conditions["a"]
    assert cond.holds is invertible
    assert (full_line_kernel_scan(p, z)["matching_det"] < 1e-8) \
        is not invertible


_SIDE_ENTRIES = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4))


@given(st.lists(_SIDE_ENTRIES, min_size=1, max_size=5),
       st.lists(_SIDE_ENTRIES, max_size=4),
       st.integers(min_value=-6, max_value=6),
       st.lists(_SIDE_ENTRIES, min_size=1, max_size=5),
       st.fractions(min_value=-8, max_value=8, max_denominator=4))
@settings(max_examples=200, deadline=None)
def test_full_line_kernel_matches_float_oracle(left, core, start, right, z):
    # exact condition (a) against the float shooting match, at rational z in
    # a gap of both side words; every verdict is a plain bool
    p = pot.eventually_periodic(left, core, start, right)
    rep = lo.fsm_applicability(p, z)
    assert all(type(c.holds) is bool for c in rep.conditions.values())
    assert type(rep.applicable) is bool
    assume(lo.is_fredholm(p, z).fredholm)
    kernel = full_line_kernel_scan(p, z)["matching_det"] < 1e-8
    assert rep.conditions["a"].holds is not kernel


@given(st.one_of(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=1, max_size=8)),
    st.fractions(min_value=-7, max_value=7, max_denominator=6))
@settings(max_examples=100, deadline=None)
def test_side_position_matches_discriminant(word, z):
    val = tr.discriminant(pot.periodic(word)).value(z)
    want = "band" if abs(val) < 2 else "edge" if abs(val) == 2 else "gap"
    for operator, sides in (("full_line", ("left", "right")),
                            ("half_line", ("right",))):
        res = lo.is_fredholm(pot.periodic(word), z, operator)
        assert res.side_position == dict.fromkeys(sides, want)
        assert res.fredholm == (want == "gap")


def test_applicability_input_checks():
    with pytest.raises(ValueError):
        lo.fsm_applicability(pot.periodic([4]), 0, operator="sideways")
    with pytest.raises(RegimeError):
        lo.fsm_applicability(pot.periodic([0.5]), 0)
    with pytest.raises(RegimeError):
        lo.is_fredholm(pot.periodic([0.5]), 0)
    with pytest.raises(TypeError):
        lo.limit_operators(pot.sturmian())
    for side in ("middle", "both", ""):
        with pytest.raises(ValueError, match="side must be"):
            lo.limit_operators(pot.periodic([4]), side=side)


@pytest.mark.parametrize("word", [(0.5, 1.0), (1, 2, 0.25)])
def test_halfline_invertible_exact_only(word):
    with pytest.raises(RegimeError):
        lo.halfline_invertible(pot.periodic(word), 0)


def test_flip_duality():
    # the left-compression conditions of p match the right-compression
    # conditions of its reflection
    rng = CounterRng(7, 0)
    for _ in range(25):
        period = rng.randint(1, 5)
        word = [rng.randint(-4, 4) for _ in range(period)]
        p = pot.periodic(word)
        z = rng.randint(-7, 7)
        a = lo.fsm_applicability(p, z)
        b = lo.fsm_applicability(pot.reflect(p), z)
        assert a.conditions["c"].holds == b.conditions["b"].holds
        assert a.conditions["b"].holds == b.conditions["c"].holds


def test_exact_sweep_periodic_words():
    # conditions on periodic words at integer points are always decided
    rng = CounterRng(11, 0)
    seen_false = 0
    for _ in range(300):
        period = rng.randint(1, 6)
        word = [rng.randint(-5, 5) for _ in range(period)]
        z = rng.randint(-8, 8)
        rep = lo.fsm_applicability(pot.periodic(word), z)
        for c in rep.conditions.values():
            assert c.holds is not None
        assert rep.applicable is not None
        if rep.applicable is False:
            seen_false += 1
    assert seen_false > 0  # the sweep hits both outcomes


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1,
                max_size=5),
       st.integers(min_value=-7, max_value=7))
@settings(max_examples=60, deadline=None)
def test_halfline_invertible_consistent_with_bands(word, z):
    import schrod1d.spectral as sp
    import schrod1d.transfer as tr
    p = pot.periodic(word)
    res = lo.halfline_invertible(p, z)
    disc = tr.discriminant(p)
    kind = sp.bands(disc).locate(z)["kind"]
    if abs(disc.value(z)) == 2:
        # band boundary or interior touching point of a closed gap
        assert kind in ("edge", "band")
        assert res.status == "band_edge"
    elif kind == "band":
        assert res.status == "in_band"
    else:
        assert res.status in ("invertible", "eigenvalue")
