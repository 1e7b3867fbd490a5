import math
import os
import subprocess
import sys
from itertools import product

import pytest

import schrod1d
from oracles import ring_modulus_class, ring_modulus_squared
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
    v = validate_ring(RingSpec(n))
    assert not v.valid
    assert v.witness is not None
    # re-verify the witness with the 60-digit oracle, not the exact route
    assert ring_modulus_class(n, v.witness) == "below_one"
    m2 = float(ring_modulus_squared(n, v.witness))
    assert math.isclose(v.witness_modulus, math.sqrt(m2), rel_tol=1e-12)


@pytest.mark.parametrize("n,height", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
                                      (6, 2), (7, 1), (8, 1)])
def test_exact_classes_match_oracle(n, height):
    ring = RingSpec(n)
    for coeffs in product(range(-height, height + 1), repeat=n):
        if not any(coeffs):
            continue
        assert ring.modulus_class(coeffs) == ring_modulus_class(n, coeffs), \
            coeffs
        if n in VALID_ORDERS:
            m2 = ring.modulus_squared(coeffs)
            assert type(m2) is int, coeffs
            assert m2 == round(float(ring_modulus_squared(n, coeffs))), coeffs


def test_rings_run_without_mpmath():
    # the ring decisions and the reproduction that reports them need no
    # mpmath: block its import in a fresh interpreter
    code = ("import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from schrod1d.reproduce import run_reproduction\n"
            "from schrod1d.rings import RingSpec, validate_ring\n"
            "print([validate_ring(RingSpec(n)).valid for n in range(1, 9)])\n"
            "print(run_reproduction('fibonacci-prefix').passed)\n")
    src = os.path.dirname(os.path.dirname(schrod1d.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[True, True, True, True, False, True, False, False]", "True"]


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
