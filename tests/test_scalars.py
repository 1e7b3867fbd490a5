from fractions import Fraction

import pytest

from schrod1d.scalars import (FLOAT, INTEGER, RATIONAL, RegimeError,
                              decode_scalar_any, encode_scalar, regime_of,
                              regime_of_all, to_exact)


def test_regime_of_basics():
    assert regime_of(3) == INTEGER
    assert regime_of(Fraction(1, 2)) == RATIONAL
    assert regime_of(0.5) == FLOAT


def test_bool_rejected():
    with pytest.raises(RegimeError):
        regime_of(True)
    with pytest.raises(RegimeError):
        to_exact(False)
    with pytest.raises(RegimeError):
        regime_of_all([1, False])


def test_regime_of_all_is_the_strongest():
    assert regime_of_all([]) == INTEGER
    assert regime_of_all([1, -2]) == INTEGER
    assert regime_of_all([1, Fraction(1, 2)]) == RATIONAL
    assert regime_of_all([Fraction(2), 1, 0.5]) == FLOAT


def test_to_exact():
    # an int stays the same int; a Fraction or finite float becomes a Fraction
    assert type(to_exact(3)) is int and to_exact(3) == 3
    assert to_exact(10 ** 400) == 10 ** 400
    for x in (Fraction(-7, 3), Fraction(4), 0.1, 2.0):
        assert to_exact(x) == x and type(to_exact(x)) is Fraction
    for bad in (True, 1j, "1", None):
        with pytest.raises(RegimeError):
            to_exact(bad)
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            to_exact(x)


def test_encode_decode_round_trip():
    for value, regime in [(5, INTEGER), (Fraction(-7, 3), RATIONAL),
                          (0.125, FLOAT)]:
        back = decode_scalar_any(encode_scalar(value))
        assert back == value and regime_of(back) == regime


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


def test_zero_denominator_is_a_value_error():
    # ValueError, not ZeroDivisionError, so config readers report it
    with pytest.raises(ValueError, match="zero denominator"):
        decode_scalar_any("1/0")
