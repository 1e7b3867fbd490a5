from fractions import Fraction

import pytest

from schrod1d.scalars import (FLOAT, INTEGER, RATIONAL, REGIMES, RegimeError,
                              coerce, decode_scalar, decode_scalar_any,
                              encode_scalar, join_regimes, regime_of,
                              to_fraction)


def test_regime_of_basics():
    assert regime_of(3) == INTEGER
    assert regime_of(Fraction(1, 2)) == RATIONAL
    assert regime_of(0.5) == FLOAT


def test_bool_rejected():
    with pytest.raises(RegimeError):
        regime_of(True)
    with pytest.raises(RegimeError):
        coerce(False, INTEGER)


def test_join_chain():
    assert join_regimes(INTEGER, RATIONAL) == RATIONAL
    assert join_regimes(RATIONAL, FLOAT) == FLOAT
    assert join_regimes(INTEGER, INTEGER) == INTEGER
    # a chain: every pair joins, in either order, to the stronger regime
    for i, a in enumerate(REGIMES):
        for b in REGIMES[i:]:
            assert join_regimes(a, b) == join_regimes(b, a) == b
    with pytest.raises(RegimeError, match="unknown regime 'gaussian_integer'"):
        join_regimes(INTEGER, "gaussian_integer")


def test_coerce_exactness():
    assert coerce(3, RATIONAL) == Fraction(3) and \
        isinstance(coerce(3, RATIONAL), Fraction)
    assert coerce(Fraction(1, 4), FLOAT) == 0.25
    with pytest.raises(RegimeError):
        coerce(Fraction(1, 2), INTEGER)
    with pytest.raises(RegimeError):
        coerce(0.5, RATIONAL)


def test_to_fraction():
    for x in (3, Fraction(-7, 3), 0.1):
        assert to_fraction(x) == x and type(to_fraction(x)) is Fraction
    for bad in (True, 1j, "1", None):
        with pytest.raises(RegimeError):
            to_fraction(bad)
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            to_fraction(x)


def test_encode_decode_round_trip():
    for value, regime in [(5, INTEGER), (Fraction(-7, 3), RATIONAL),
                          (0.125, FLOAT)]:
        assert decode_scalar(encode_scalar(value), regime) == value


def test_decode_scalar_any():
    assert decode_scalar_any(3) == 3 and decode_scalar_any(0.5) == 0.5
    assert decode_scalar_any("-7/3") == Fraction(-7, 3)
    with pytest.raises(RegimeError):
        decode_scalar_any(True)
    for bad in ("x", [1, -2], [1.5, 2], [1, 2, 3], None):
        with pytest.raises(ValueError):
            decode_scalar_any(bad)


def test_non_finite_float_is_a_value_error():
    # JSON readers accept NaN and Infinity; neither is a potential value or z
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            decode_scalar_any(x)
        with pytest.raises(ValueError, match="non-finite"):
            decode_scalar(x, FLOAT)


def test_zero_denominator_is_a_value_error():
    # ValueError, not ZeroDivisionError, so config readers report it
    with pytest.raises(ValueError, match="zero denominator"):
        decode_scalar_any("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        decode_scalar("1/0", RATIONAL)
