from fractions import Fraction

import pytest

from schrod1d.scalars import (FLOAT, GAUSSIAN, INTEGER, RATIONAL,
                              GaussianInteger, RegimeError, coerce,
                              decode_scalar, decode_scalar_any, encode_scalar,
                              join_regimes, regime_of)


def test_regime_of_basics():
    assert regime_of(3) == INTEGER
    assert regime_of(Fraction(1, 2)) == RATIONAL
    assert regime_of(0.5) == FLOAT
    assert regime_of(GaussianInteger(1, -2)) == GAUSSIAN


def test_bool_rejected():
    with pytest.raises(RegimeError):
        regime_of(True)
    with pytest.raises(RegimeError):
        coerce(False, INTEGER)


def test_join_chain():
    assert join_regimes(INTEGER, RATIONAL) == RATIONAL
    assert join_regimes(RATIONAL, FLOAT) == FLOAT
    assert join_regimes(INTEGER, INTEGER) == INTEGER
    assert join_regimes(INTEGER, GAUSSIAN) == GAUSSIAN


def test_gaussian_mixes_only_with_integers():
    with pytest.raises(RegimeError):
        join_regimes(GAUSSIAN, RATIONAL)
    with pytest.raises(RegimeError):
        join_regimes(FLOAT, GAUSSIAN)
    with pytest.raises(RegimeError):
        GaussianInteger(1, 1) + Fraction(1, 2)
    with pytest.raises(RegimeError):
        GaussianInteger(1, 1) * 0.5


def test_gaussian_arithmetic():
    a = GaussianInteger(2, 3)
    b = GaussianInteger(1, -1)
    assert a + b == GaussianInteger(3, 2)
    assert a - b == GaussianInteger(1, 4)
    assert a * b == GaussianInteger(5, 1)  # (2+3i)(1-i) = 5 + i
    assert a * 2 == GaussianInteger(4, 6)
    assert 1 + b == GaussianInteger(2, -1)
    assert (-a) == GaussianInteger(-2, -3)
    assert a.abs2() == 13


def test_coerce_exactness():
    assert coerce(3, RATIONAL) == Fraction(3) and \
        isinstance(coerce(3, RATIONAL), Fraction)
    assert coerce(Fraction(1, 4), FLOAT) == 0.25
    assert isinstance(coerce(2, GAUSSIAN), GaussianInteger)
    with pytest.raises(RegimeError):
        coerce(Fraction(1, 2), INTEGER)
    with pytest.raises(RegimeError):
        coerce(0.5, RATIONAL)


def test_encode_decode_round_trip():
    for value, regime in [(5, INTEGER), (Fraction(-7, 3), RATIONAL),
                          (0.125, FLOAT), (GaussianInteger(0, -4), GAUSSIAN)]:
        assert decode_scalar(encode_scalar(value), regime) == value


def test_decode_scalar_any():
    assert decode_scalar_any(3) == 3 and decode_scalar_any(0.5) == 0.5
    assert decode_scalar_any("-7/3") == Fraction(-7, 3)
    assert decode_scalar_any([1, -2]) == GaussianInteger(1, -2)
    with pytest.raises(RegimeError):
        decode_scalar_any(True)
    for bad in ("x", [1.5, 2], [1, 2, 3], None):
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
