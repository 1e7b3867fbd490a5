"""Potentials on the integer lattice.

A potential is a total, deterministic map Z -> scalars. Its values are kept
exactly as given, and its regime (see scalars.py) is read off them: the
strongest regime among its values. Four families are supported:

- periodic: word repeated over Z with a phase,
- eventually_periodic: a finite core with periodic words tiling both sides,
- sturmian: the golden-ratio Sturmian 0/1 sequence, evaluated exactly,
- random: counter-based pseudo random choices from a finite value set.

A finite window with a constant value outside (explicit) is the eventually
periodic potential whose side words are both that one value.

All families support exact pointwise evaluation and JSON round-trips.

array(lo, hi) equals np.array([float(p.value(n)) for n in range(lo, hi + 1)])
bit for bit and raises where that does; periodic, Sturmian and random
potentials build it with numpy when their indices fit in 64 bits.
"""

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .prng import counter_value, splitmix64
from .scalars import (INTEGER, _require_int, decode_scalar_any, encode_scalar,
                      regime_of_all)


def _floor_golden_multiple(n):
    """floor(n * a) with a = (sqrt(5) - 1) / 2, exact for any integer n.

    For n >= 0 this is (isqrt(5 n^2) - n) // 2; since n * sqrt(5) is
    irrational for n != 0, the negative case is -floor(|n| a) - 1.
    """
    if n == 0:
        return 0
    m = abs(n)
    f = (isqrt(5 * m * m) - m) // 2
    return f if n > 0 else -f - 1


def fibonacci_value(n):
    """n-th letter of the golden-ratio Sturmian sequence, exactly.

    Equals 1 when n * a mod 1 lands in [1 - a, 1) with a = (sqrt(5) - 1)/2,
    equivalently floor((n+1) a) - floor(n a). Integer arithmetic only.
    """
    return _floor_golden_multiple(n + 1) - _floor_golden_multiple(n)


def _fibonacci_array(lo, hi):
    """fibonacci_value(k) for k in [lo, hi], |k| <= 10^9, as floats: the float
    root of 5 k^2 (< 2^63) is off by under 1e-6, one int64 step fixes it."""
    k = np.arange(lo, hi + 2, dtype=np.int64)
    m2 = 5 * k * k
    s = np.floor(np.sqrt(m2.astype(float))).astype(np.int64)
    s -= s * s > m2
    s += (s + 1) * (s + 1) <= m2
    f = (s - np.abs(k)) // 2
    return np.diff(np.where(k >= 0, f, -f - 1)).astype(float)


def _keep_values(p, names):
    """Store the named value fields of p as tuples, as given, and set
    p.regime from them."""
    words = tuple(tuple(getattr(p, name)) for name in names)
    for name, word in zip(names, words):
        object.__setattr__(p, name, word)
    object.__setattr__(p, "regime", regime_of_all(sum(words, ())))


class Potential:
    """Base class; concrete families implement value(n)."""

    regime = INTEGER
    kind = "abstract"

    def value(self, n):
        raise NotImplementedError

    def array(self, lo, hi):
        """float(value(n)) for n in [lo, hi] as one float array."""
        return np.array([float(self.value(n)) for n in range(lo, hi + 1)])

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class PeriodicPotential(Potential):
    """word repeated over Z: value(n) = word[(n - phase) mod period]."""

    word: tuple
    phase: int = 0
    regime: str = field(default=INTEGER, init=False)
    kind: str = field(default="periodic", init=False)

    def __post_init__(self):
        if not self.word:
            raise ValueError("periodic word must be nonempty")
        _keep_values(self, ("word",))
        object.__setattr__(self, "phase", self.phase % len(self.word))

    @property
    def period(self):
        return len(self.word)

    def value(self, n):
        return self.word[(n - self.phase) % len(self.word)]

    def array(self, lo, hi):
        n, q = hi - lo + 1, len(self.word)
        table = super().array(lo, lo + min(q, n) - 1)  # the sites it reads
        return table[np.arange(n) % q]

    def to_json(self):
        return {"kind": "periodic", "phase": self.phase,
                "word": [encode_scalar(v) for v in self.word]}


@dataclass(frozen=True)
class EventuallyPeriodicPotential(Potential):
    """Periodic words tiling both sides of a finite (possibly empty) core.

    core occupies [core_start, core_start + len(core) - 1]; the right word
    starts right after the core and tiles to +infinity, the left word ends
    right before the core and tiles to -infinity.
    """

    left_word: tuple
    core: tuple
    core_start: int
    right_word: tuple
    regime: str = field(default=INTEGER, init=False)
    kind: str = field(default="eventually_periodic", init=False)

    def __post_init__(self):
        if not self.left_word or not self.right_word:
            raise ValueError("side words must be nonempty")
        _keep_values(self, ("left_word", "core", "right_word"))

    @property
    def right_start(self):
        return self.core_start + len(self.core)

    def value(self, n):
        if n >= self.right_start:
            return self.right_word[(n - self.right_start) % len(self.right_word)]
        if n < self.core_start:
            return self.left_word[(n - self.core_start) % len(self.left_word)]
        return self.core[n - self.core_start]

    def to_json(self):
        return {"kind": "eventually_periodic", "core_start": self.core_start,
                "left_word": [encode_scalar(v) for v in self.left_word],
                "core": [encode_scalar(v) for v in self.core],
                "right_word": [encode_scalar(v) for v in self.right_word]}


@dataclass(frozen=True)
class SturmianPotential(Potential):
    """Golden-ratio Sturmian 0/1 potential, exact integer evaluation:
    value(n) = fibonacci_value(n + offset)."""

    offset: int = 0
    regime: str = field(default=INTEGER, init=False)
    kind: str = field(default="sturmian", init=False)

    def value(self, n):
        return fibonacci_value(n + self.offset)

    def array(self, lo, hi):
        a, b = lo + self.offset, hi + self.offset
        if b < a or max(abs(a), abs(b)) > 10 ** 9:
            return super().array(lo, hi)
        return _fibonacci_array(a, b)

    def to_json(self):
        return {"kind": "sturmian", "slope": "golden-ratio",
                "offset": self.offset}


@dataclass(frozen=True)
class RandomPotential(Potential):
    """Deterministic pseudo random choices from a finite value set.

    value(n) picks from values by a splitmix64 counter keyed on (seed, n);
    random access, no state.
    """

    seed: int
    values: tuple
    regime: str = field(default=INTEGER, init=False)
    kind: str = field(default="random", init=False)

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not self.values:
            raise ValueError("value set must be nonempty")
        _keep_values(self, ("values",))

    def value(self, n):
        return self.values[counter_value(self.seed, n) % len(self.values)]

    def array(self, lo, hi):
        if max(abs(lo), abs(hi)) >= 2 ** 62:
            return super().array(lo, hi)
        try:
            table = np.array([float(v) for v in self.values])
        except (OverflowError, TypeError):  # maybe at a value never drawn
            return super().array(lo, hi)
        i = lo + np.arange(hi - lo + 1, dtype=np.int64)
        u = np.where(i >= 0, i << 1, (-i << 1) - 1).astype(np.uint64)
        word = splitmix64(np.uint64(self.seed) ^ splitmix64(u))
        return table[(word % np.uint64(len(self.values))).astype(np.intp)]

    def to_json(self):
        return {"kind": "random", "seed": self.seed,
                "values": [encode_scalar(v) for v in self.values]}


def periodic(word, phase=0):
    return PeriodicPotential(word, phase)


def eventually_periodic(left_word, core, core_start, right_word):
    return EventuallyPeriodicPotential(left_word, core, core_start, right_word)


def sturmian(offset=0):
    return SturmianPotential(offset)


def explicit(values, start=0, outside=0):
    return eventually_periodic((outside,), values, start, (outside,))


def random_values(seed, values):
    return RandomPotential(seed, values)


def potential_from_json(doc):
    """Rebuild any potential family from its to_json document, or an
    explicit window ("window", "start", "outside") as eventually periodic.

    Entries read as written (numbers as numbers, "p/q" strings as exact
    rationals), and the regime is read off them; the document names none.
    Words must be arrays: a string is not read as its characters. A key the
    family does not read is refused, so a misspelt or stale key is never
    dropped silently.
    """
    read = {"kind"}

    def get(name, default=None):
        read.add(name)
        return doc.get(name, default)

    def dec(name, default=None):
        vs = get(name, default)
        if not isinstance(vs, (list, tuple)):
            raise ValueError("%s must be an array, got %r" % (name, vs))
        return tuple(map(decode_scalar_any, vs))

    def index(name, default=None):
        return _require_int(get(name, default), "%s must be an integer" % name)

    kind = doc.get("kind")
    if kind == "periodic":
        p = periodic(dec("word"), index("phase", 0))
    elif kind == "eventually_periodic":
        p = eventually_periodic(
            dec("left_word"), dec("core", []),
            index("core_start"), dec("right_word"))
    elif kind == "sturmian":
        if get("slope", "golden-ratio") != "golden-ratio":
            raise ValueError("unsupported sturmian slope %r" % doc.get("slope"))
        p = sturmian(index("offset", 0))
    elif kind == "explicit":
        p = explicit(dec("window"), index("start"),
                     decode_scalar_any(get("outside", 0)))
    elif kind == "random":
        p = random_values(index("seed"), dec("values"))
    else:
        raise ValueError("unknown potential kind %r" % (kind,))
    unknown = set(doc) - read
    if unknown:
        raise ValueError("unknown key %r" % min(unknown, key=str))
    return p
