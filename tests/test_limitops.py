import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import schrod1d.limitops as lo
import schrod1d.potential as pot
import schrod1d.transfer as tr
from schrod1d.prng import CounterRng
from schrod1d.scalars import RegimeError
from oracles import (full_line_kernel_scan, halfline_wronskian_status,
                     reflection, rotation_failures, window)


def distance_to(ess, z):
    """Float distance from z to the essential spectrum, side by side."""
    return min(bs.distance_to_spectrum(z) for bs in ess.side_bands.values())


def failed_keys(rep):
    return tuple(k for k, c in rep.conditions.items() if c.holds is False)


def kernel_example(core_start=0):
    return pot.eventually_periodic(
        left_word=(1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1),
        core=(), core_start=core_start,
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
    assert res.detail["multiplier"] == F(1, 2)


def test_integer_word_at_integer_z_stays_in_int_arithmetic():
    # the trace runs on ints, and an invertible result carries no multiplier
    res = lo.halfline_invertible(pot.periodic([3, -1]), 0)
    assert res.status == "invertible"
    assert type(res.detail["disc"]) is int and res.detail["disc"] == -5
    assert "multiplier" not in res.detail


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
             pytest.param(pot.eventually_periodic(
                 ex.right_word[::-1], (), 1, ex.left_word[::-1]), 0, False,
                 id="example-4-2-reflected")]
    cases += [pytest.param(kernel_example(-k), 0, False,
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
        b = lo.fsm_applicability(pot.periodic(word[::-1], phase=1), z)
        assert a.conditions["c"].holds == b.conditions["b"].holds
        assert a.conditions["b"].holds == b.conditions["c"].holds


def test_flip_duality_eventually_periodic():
    # n -> -n is a unitary equivalence: it swaps the right and left
    # compressions, (b) and (c), and keeps the full-line kernel, (a); a
    # third of the right words and a third of the left words are singular
    # at z, which puts an eigenvalue in one of their compressions, and
    # example-4-2 and its shifts meet (a) as False on a kernel
    rng = CounterRng(32, 0)
    cases = [(kernel_example(s), 0) for s in (-7, 0, 5)]
    for i in range(300):
        z = F(rng.randint(-24, 24), rng.randint(1, 3))
        left, core, right = ([_rational(rng) for _ in range(rng.randint(1, 4))]
                             for _ in range(3))
        if i % 3 == 0:
            right = _singular_word(rng, len(right) + 1, z)[::(-1) ** i]
        elif i % 3 == 1:
            left = _singular_word(rng, len(left) + 1, z)[::(-1) ** i]
        cases.append((pot.eventually_periodic(left, core, rng.randint(-6, 6),
                                              right), z))
    seen = {"kernel": 0, "b": 0, "c": 0}
    for p, z in cases:
        a = lo.fsm_applicability(p, z).conditions
        b = lo.fsm_applicability(reflection(p), z).conditions
        assert window(reflection(p), -12, 12) == window(p, -12, 12)[::-1]
        assert [b[k].holds for k in "abc"] == [a[k].holds for k in "acb"]
        if a["a"].items[0].fredholm:
            seen["kernel"] += not a["a"].holds
            seen["b"] += not a["b"].holds
            seen["c"] += not a["c"].holds
    assert min(seen.values()) >= 3, seen


def _rational(rng):
    return F(rng.randint(-16, 16), rng.randint(1, 4))


def _singular_word(rng, q, z):
    """A rational word of length q >= 2 whose section [0, q - 2] is singular
    at z: the Dirichlet orbit has x_{q-1} = 0, so m12(z) = 0."""
    while True:
        w = [_rational(rng) for _ in range(q)]
        x0, x1 = 0, 1  # (x_{k-1}, x_k), up to (x_{q-3}, x_{q-2})
        for v in w[:q - 2]:
            x0, x1 = x1, (z - v) * x1 - x0
        if x1:
            w[q - 2] = z - F(x0) / x1
            return w


def _core_reaching(rng, z, target, length):
    """A rational core on sites 0 .. length - 1 (length >= 2) that carries
    the Dirichlet vector (x_{-1}, x_0) = (0, 1) to a multiple of target,
    read as (x_{length-1}, x_length): built backwards from the target."""
    while True:
        core = [_rational(rng) for _ in range(length)]
        a, b = target  # (x_{n-1}, x_n), from n = length down to n = 1
        for v in reversed(core[1:]):
            a, b = (z - v) * a - b, a
        if a:
            core[0] = z - F(b) / a  # so that x_{-1} = 0
            return core


def _rotation_summary(failures, q):
    if not failures:
        return "all %d rotations invertible" % q
    return "rotation failures: %s" % ", ".join("r=%d %s" % f for f in failures)


def test_rotation_conditions_match_wronskian_oracle():
    # conditions (b), (c), (e) and halfline_invertible against one rebuilt
    # potential per rotation; integer words at integral z never have an
    # eigenvalue, so a third of the words are made singular at z, and half
    # of those reversed, which moves the eigenvalue to the other orientation
    rng = CounterRng(30, 0)
    eigen = {"plus": 0, "minus": 0}
    for i in range(450):
        q = rng.randint(1, 8)
        if i % 3 == 0:
            word = [rng.randint(-4, 4) for _ in range(q)]
            z = rng.randint(-7, 7)
        else:
            z = F(rng.randint(-24, 24), rng.randint(1, 3))
            word = ([_rational(rng) for _ in range(q)] if i % 3 == 1
                    else _singular_word(rng, max(q, 2), z)[::(-1) ** i])
        q = len(word)
        p = pot.periodic(word)
        full = lo.fsm_applicability(p, z)
        half = lo.fsm_applicability(p, z, "half_line")
        for cond, compress in ((full.conditions["b"], "plus"),
                               (full.conditions["c"], "minus"),
                               (half.conditions["e"], "minus")):
            bad = rotation_failures(word, z, compress)
            assert cond.summary == _rotation_summary(bad, q)
            assert cond.holds is (not bad)
            eigen[compress] += any(s == "eigenvalue" for _, s in bad)
        res = lo.halfline_invertible(p, z)
        assert (res.status, res.detail.get("multiplier")) == \
            halfline_wronskian_status(p, z, 0, q)
    assert min(eigen.values()) > 20, eigen


def test_halfline_condition_matches_wronskian_oracle():
    # condition (d) on eventually periodic potentials; a right word with
    # m12(z) = 0 has a rational contracting direction, and every fourth core
    # carries the Dirichlet orbit onto it, so z is an eigenvalue there unless
    # it is a band edge
    rng = CounterRng(31, 0)
    eigen = 0
    for i in range(400):
        z = F(rng.randint(-24, 24), rng.randint(1, 3))
        q = rng.randint(1, 6)
        right = (_singular_word(rng, max(q, 2), z) if i % 2
                 else [_rational(rng) for _ in range(q)])
        left = [_rational(rng) for _ in range(rng.randint(1, 4))]
        if i % 4 == 3:
            m = tr.monodromy(pot.periodic(right), z)
            target = (0, 1) if abs(m.d) < 1 else (m.a - m.d, m.c)
            start, core = 0, _core_reaching(rng, z, target, rng.randint(2, 5))
        else:
            start = rng.randint(-6, 6)
            core = [_rational(rng) for _ in range(rng.randint(0, 5))]
        p = pot.eventually_periodic(left, core, start, right)
        status, lam = halfline_wronskian_status(
            p, z, max(p.right_start, 0), len(right))
        res = lo.halfline_invertible(p, z)
        assert (res.status, res.detail.get("multiplier")) == (status, lam)
        cond = lo.fsm_applicability(p, z, "half_line").conditions["d"]
        assert cond.holds is (status == "invertible")
        eigen += status == "eigenvalue"
    assert eigen > 20, eigen


def test_rotation_items_are_integer_certificates():
    # an integer word at integral z in a gap carries one certificate per
    # rotation; at a band edge or a rational z it carries none
    p = pot.periodic([3, -1, 2])
    cond = lo.fsm_applicability(p, 0).conditions["b"]
    assert [r for r, _ in cond.items] == [0, 1, 2]
    assert all(c.status == "gap_no_dirichlet" for _, c in cond.items)
    for z in (2, F(1, 2)):
        assert lo.fsm_applicability(p, z).conditions["b"].items == ()


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
            assert type(c.holds) is bool
        assert type(rep.applicable) is bool
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
