import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from schrod1d.prng import CounterRng, counter_value, splitmix64


def test_splitmix_reference_value():
    # first output of the standard generator seeded at 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


@given(st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=20))
@settings(max_examples=80, deadline=None)
def test_splitmix_on_uint64_arrays(xs):
    xs = [0, 1, 2 ** 63, 2 ** 64 - 1] + xs
    out = splitmix64(np.array(xs, dtype=np.uint64))
    assert out.dtype == np.uint64
    assert [int(v) for v in out] == [splitmix64(x) for x in xs]


def test_counter_value_deterministic_and_signed():
    a = [counter_value(42, i) for i in range(-5, 6)]
    b = [counter_value(42, i) for i in range(-5, 6)]
    assert a == b
    assert len(set(a)) == len(a)  # zigzag folding keeps indices distinct
    assert counter_value(42, -1) != counter_value(42, 1)


def test_streams_decouple():
    r0 = CounterRng(1, stream=0)
    r1 = CounterRng(1, stream=1)
    assert [r0.next_u64() for _ in range(8)] != [r1.next_u64() for _ in range(8)]


def test_rng_sequence_reproducible():
    draws = [CounterRng(123, 4).randint(-5, 5) for _ in range(1)]
    again = CounterRng(123, 4)
    assert draws[0] == again.randint(-5, 5)
    seq = [again.randint(-5, 5) for _ in range(200)]
    fresh = CounterRng(123, 4)
    fresh.next_u64()
    assert seq == [fresh.randint(-5, 5) for _ in range(200)]


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=-10, max_value=10),
       st.integers(min_value=0, max_value=10))
@settings(max_examples=80, deadline=None)
def test_randint_stays_in_range(seed, lo, width):
    rng = CounterRng(seed)
    hi = lo + width
    for _ in range(20):
        assert lo <= rng.randint(lo, hi) <= hi


def test_randint_rejects_empty_range():
    with pytest.raises(ValueError):
        CounterRng(0).randint(3, 2)


def test_choice_hits_all_elements():
    rng = CounterRng(77)
    seen = {rng.choice("abc") for _ in range(100)}
    assert seen == {"a", "b", "c"}
