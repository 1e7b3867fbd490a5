from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schrod1d.potential as pot
from schrod1d.jsonio import dumps
from schrod1d.scalars import FLOAT, INTEGER, RATIONAL, RegimeError
from oracles import golden_word, window


def family_examples():
    return [
        pot.periodic([F(1, 2), 2, F(1, 2)]),
        pot.periodic([3], phase=0),
        pot.eventually_periodic([0], [7, -1, 7], -1, [4]),
        pot.eventually_periodic([1, 1, 0, 0, 0], [], 0, [1, 0, 1, 0, 1]),
        pot.sturmian(),
        pot.sturmian(offset=4),
        pot.explicit([5, -2, 0], start=-1, outside=1),
        pot.random_values(12345, [-1, 0, 2]),
    ]


@pytest.mark.parametrize("p", family_examples())
def test_json_round_trip(p):
    doc = p.to_json()
    q = pot.potential_from_json(doc)
    assert window(q, -20, 20) == window(p, -20, 20)
    assert q.regime == p.regime
    # serialization is deterministic down to bytes
    assert dumps(doc) == dumps(q.to_json())


@pytest.mark.parametrize("p", family_examples())
def test_json_regime_inference(p):
    # documents name no regime; decoding reads it off the values
    doc = p.to_json()
    assert "regime" not in doc
    q = pot.potential_from_json(doc)
    assert window(q, -20, 20) == window(p, -20, 20)
    assert q.regime == p.regime


def test_periodic_word_and_phase():
    p = pot.periodic([1, 0, 1, 0, 1])
    assert p.period == 5
    assert window(p, 0, 4) == [1, 0, 1, 0, 1]
    assert p.value(5) == p.value(0) and p.value(-1) == p.value(4)
    shifted = pot.periodic([1, 0, 1, 0, 1], phase=2)
    assert shifted.value(2) == 1 and shifted.value(3) == 0


def test_eventually_periodic_layout():
    p = pot.eventually_periodic([8, 9], [5], 0, [1, 2, 3])
    # core at 0, right word tiles from 1, left word ends at -1
    assert p.value(0) == 5
    assert window(p, 1, 6) == [1, 2, 3, 1, 2, 3]
    assert window(p, -4, -1) == [8, 9, 8, 9]
    assert p.right_start == 1


def test_empty_core_junction():
    p = pot.eventually_periodic([2], [], 3, [6])
    assert p.value(2) == 2 and p.value(3) == 6


def test_explicit_window_and_outside():
    p = pot.explicit([5, -2, 0], start=-1, outside=1)
    assert window(p, -2, 2) == [1, 5, -2, 0, 1]
    assert p.value(100) == 1 and p.value(-100) == 1


def test_explicit_document_is_eventually_periodic():
    # a window with a constant outside is the eventually periodic potential
    # whose side words are both that constant
    p = pot.potential_from_json({"kind": "explicit", "window": [1, "1/2", -3],
                                 "start": -1, "outside": "5/2"})
    q = pot.potential_from_json({"kind": "eventually_periodic",
                                 "left_word": ["5/2"], "core": [1, "1/2", -3],
                                 "core_start": -1, "right_word": ["5/2"]})
    assert p == q and p.kind == "eventually_periodic"
    assert pot.potential_from_json(p.to_json()) == p


def test_sturmian_matches_block_construction():
    length = 4000
    word = golden_word(length)
    p = pot.sturmian()
    assert [p.value(n) for n in range(1, length + 1)] == word


def test_sturmian_prefix():
    p = pot.sturmian()
    assert [p.value(n) for n in range(1, 6)] == [1, 0, 1, 1, 0]
    assert set(window(p, 1, 500)) == {0, 1}


def test_random_is_deterministic_random_access():
    p = pot.random_values(987654321, [-3, 1, 4])
    vals = window(p, -50, 50)
    assert vals == window(pot.random_values(987654321, [-3, 1, 4]), -50, 50)
    assert set(vals) <= {-3, 1, 4}
    # different seeds decouple
    q = pot.random_values(987654322, [-3, 1, 4])
    assert window(q, -50, 50) != vals


def test_regime_inference():
    assert pot.periodic([1, 2]).regime == INTEGER
    assert pot.periodic([1, F(1, 2)]).regime == RATIONAL
    assert pot.periodic([1, 0.5]).regime == FLOAT


def test_values_are_kept_as_given():
    # no coercion into the strongest regime: an int stays an int
    p = pot.periodic([1, F(1, 2)])
    assert type(p.word[0]) is int and p.word[0] == 1
    assert p.regime == RATIONAL
    q = pot.explicit([2, 3], outside=0.5)
    assert [type(v) for v in q.core + q.left_word] == [int, int, float]
    assert q.regime == FLOAT
    r = pot.eventually_periodic([1], [F(3, 2)], 0, [2])
    assert type(r.value(-1)) is int and r.regime == RATIONAL
    assert pot.random_values(5, [F(1, 2), 1.0]).values == (F(1, 2), 1.0)
    for build in (pot.periodic, pot.PeriodicPotential):
        with pytest.raises(TypeError):
            build([1], 0, RATIONAL)


def test_rejected_values():
    with pytest.raises(RegimeError):
        pot.periodic([True, 0])
    with pytest.raises(RegimeError):
        pot.periodic([1, None])
    with pytest.raises(ValueError):
        pot.periodic([])
    with pytest.raises(ValueError):
        pot.random_values(-1, [0, 1])


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        pot.potential_from_json({"kind": "nope"})


def test_unknown_keys_rejected():
    # a stale or misspelt key is refused by name, never dropped silently
    with pytest.raises(ValueError, match="unknown key 'regime'"):
        pot.potential_from_json({"kind": "periodic", "word": [1, 2],
                                 "regime": "float", "wrod": 3})
    with pytest.raises(ValueError, match="unknown key 'phase'"):
        pot.potential_from_json({"kind": "sturmian", "phase": 1})
    with pytest.raises(ValueError, match="unknown key 'orientation'"):
        pot.potential_from_json({"kind": "sturmian", "orientation": -1})
    with pytest.raises(ValueError, match="unknown key 'index_offset'"):
        pot.potential_from_json({"kind": "random", "seed": 1, "values": [0],
                                 "index_offset": 0})


def site_route(p, lo, hi):
    """The per-site float route that Potential.array must equal bit for bit."""
    return np.array([float(p.value(n)) for n in range(lo, hi + 1)])


def near(*centres):
    return st.one_of(*(st.integers(min_value=c - 40, max_value=c + 40)
                       for c in centres))


entries = st.one_of(st.integers(min_value=-5, max_value=5),
                    st.fractions(min_value=-5, max_value=5, max_denominator=7))
float_entries = st.floats(min_value=-5, max_value=5, allow_nan=False)


@st.composite
def any_potential(draw):
    family = draw(st.sampled_from(["periodic", "sturmian", "random",
                                   "eventually_periodic", "explicit"]))
    words = st.lists(st.one_of(entries, float_entries) if draw(st.booleans())
                     else entries, min_size=1, max_size=6)
    starts = st.one_of(st.integers(-30, 30), near(10 ** 9, -10 ** 9))
    if family == "periodic":
        return pot.periodic(draw(words), phase=draw(st.integers(-10, 10)))
    if family == "sturmian":
        return pot.sturmian(draw(near(0, 10 ** 9, -10 ** 9, 10 ** 24)))
    if family == "random":
        return pot.random_values(draw(st.integers(0, 2 ** 64 - 1)),
                                 draw(words))
    if family == "eventually_periodic":
        return pot.eventually_periodic(draw(words), draw(words),
                                       draw(starts), draw(words))
    return pot.explicit(draw(words), start=draw(starts),
                        outside=draw(entries))


@given(any_potential(), st.data())
@settings(max_examples=300, deadline=None)
def test_array_matches_site_route(p, data):
    # lo near 0, near the index where a Sturmian or random potential's own
    # counter crosses a fast-path limit, and far out on both sides
    lo = data.draw(st.one_of(near(0, 10 ** 9, -10 ** 9, 2 ** 62, -2 ** 62),
                             st.integers(-10 ** 30, 10 ** 30)))
    hi = lo + data.draw(st.integers(min_value=-1, max_value=60))
    got, want = p.array(lo, hi), site_route(p, lo, hi)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("offset", [
    10 ** 9 - 20, -10 ** 9 + 20, 2 * 10 ** 9, -4 * 10 ** 9, 10 ** 24])
def test_sturmian_array_across_limits(offset, direction):
    # windows of counters n + offset near offset, near -offset and near
    # 3 offset; direction -1 takes the mirror images of the direction 1
    # windows, the counters a potential read right to left would meet
    p = pot.sturmian(offset)
    los = (-40, 0, 40 - 2 * offset) if direction == 1 else \
        (-10, -50, 2 * offset - 90)
    for lo in los:
        want = site_route(p, lo, lo + 50)
        assert p.array(lo, lo + 50).tobytes() == want.tobytes()


def test_sturmian_array_at_fibonacci_indices():
    # 5 F_n^2 = L_n^2 -+ 4: sqrt(5) F_n is within 1e-8 of the integer L_n, so
    # the float root lands on the wrong side and the exact step must fix it
    fib = [1, 2]
    while fib[-1] <= 10 ** 9:
        fib.append(fib[-1] + fib[-2])
    p = pot.sturmian()
    for f in fib[20:-1]:
        for lo in (f - 55, -f - 5):
            want = site_route(p, lo, lo + 60)
            assert p.array(lo, lo + 60).tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("centre", [
    2 ** 62 - 20, -2 ** 62 + 20, 2 ** 63 - 20, -2 ** 64, 10 ** 26])
def test_random_array_across_limits(centre, direction):
    # windows of counters n near centre, near -centre and near 3 centre;
    # direction -1 takes the mirror images of the direction 1 windows
    p = pot.random_values(2 ** 64 - 1, [F(1, 3), -2, 7])
    los = (centre - 40, centre, 40 - centre) if direction == 1 else \
        (centre - 10, centre - 50, 3 * centre - 90)
    for lo in los:
        want = site_route(p, lo, lo + 50)
        assert p.array(lo, lo + 50).tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [
    pot.periodic([1, 10 ** 400, 2]),
    pot.periodic([F(10 ** 400, 3), F(1, 2)]),
    pot.random_values(5, [1, 10 ** 400]),
    pot.random_values(5, [F(1, 2), F(-10 ** 400, 7), 3]),
    pot.explicit([10 ** 400], start=0)])
def test_array_overflow_like_site_route(p):
    for lo, hi in [(-20, 20), (0, 0), (1, 1), (2, 2), (5, 4), (-3, -2)]:
        try:
            want = site_route(p, lo, hi)
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=str(exc)):
                p.array(lo, hi)
        else:
            assert p.array(lo, hi).tobytes() == want.tobytes()
