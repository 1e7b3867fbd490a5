import math

import pytest

from schrod1d.rings import RingSpec, validate_ring


VALID_ORDERS = (1, 2, 3, 4, 6)
INVALID_ORDERS = (5, 7, 8)


@pytest.mark.parametrize("n", VALID_ORDERS)
def test_valid_orders(n):
    v = validate_ring(RingSpec(n))
    assert v.valid
    assert v.order == n
    assert v.witness is None


@pytest.mark.parametrize("n", INVALID_ORDERS)
def test_invalid_orders_have_checkable_witness(n):
    ring = RingSpec(n)
    v = validate_ring(ring)
    assert not v.valid
    assert v.witness is not None
    # re-verify the witness independently of the search
    m2 = ring.modulus_squared(v.witness)
    assert 0 < float(m2) < 1
    assert math.isclose(v.witness_modulus, math.sqrt(float(m2)),
                        rel_tol=1e-12)


def test_known_witness_moduli():
    # order 5: golden-section gap 1/phi; orders 7 and 8 accumulate likewise
    approx = {5: 0.6180339887, 7: 0.4450418679, 8: 0.7653668647}
    for n, target in approx.items():
        v = validate_ring(RingSpec(n))
        assert abs(v.witness_modulus - target) < 1e-6, (n, v.witness_modulus)


@pytest.mark.parametrize("n", VALID_ORDERS + INVALID_ORDERS)
def test_ring_axioms_and_closure(n):
    ring = RingSpec(n)
    one, mone, zero = ring.one(), ring.minus_one(), ring.zero()
    assert ring.add(one, mone) == zero
    assert ring.mul(one, one) == one
    assert ring.mul(mone, mone) == one
    assert ring.mul(one, mone) == mone
    # -1, 0, 1 have the right moduli
    assert float(ring.modulus_squared(one)) == 1.0
    assert float(ring.modulus_squared(mone)) == 1.0
    assert float(ring.modulus_squared(zero)) == 0.0


def test_order_four_is_gaussian_grid():
    ring = RingSpec(4)
    # r = i: element (a, b, c, d) = a*i - b + c*(-i) + d
    i = ring.element((1, 0, 0, 0))
    # i*i lands on the r^2 coordinate; it equals -1 as a grid point
    assert ring.modulus_squared(ring.add(ring.mul(i, i), ring.one())) == 0
    assert ring.modulus_squared(ring.element((2, 0, 0, 1))) == 5


def test_order_six_triangular_grid():
    ring = RingSpec(6)
    r = ring.element((1, 0, 0, 0, 0, 0))
    # r is a primitive sixth root: r^2 = r - 1, modulus 1
    assert ring.modulus_squared(r) == 1
    r2 = ring.mul(r, r)
    assert ring.modulus_squared(r2) == 1
    # shortest nonzero vectors of the triangular grid have modulus 1
    assert ring.modulus_squared(ring.add(r, ring.minus_one())) == 1


def test_rejected_parameters():
    with pytest.raises(ValueError):
        RingSpec(0)
    with pytest.raises(ValueError):
        RingSpec(9)
    with pytest.raises(ValueError):
        RingSpec(True)
    with pytest.raises(TypeError):
        validate_ring(4)


def test_element_length_checked():
    ring = RingSpec(3)
    with pytest.raises(ValueError):
        ring.element((1, 2))
