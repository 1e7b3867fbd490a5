"""Self-contained reproductions of the library's landmark computations.

Each reproduction returns a named list of checks, all decided against exact
arithmetic or pinned closed forms, plus a data dictionary suitable for JSON
artifacts. They double as executable documentation of the two phenomena the
package is built around: a half-line compression that is singular although
the full-line operator is invertible, and a two-sided potential whose
full-line operator has an explicit kernel vector even though every
one-sided compression of its limit words is invertible.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .fsm import CutoffSequence, SectionScheme, run_fsm, stability_scan
from .limitops import (fsm_applicability, halfline_invertible, is_fredholm,
                       limit_operators)
from .potential import eventually_periodic, periodic, sturmian
from .prng import CounterRng
from .rings import RingSpec, validate_ring
from .spectral import dirichlet_eigenvalues, truncation_spectrum
from .transfer import (TransferMatrix, dirichlet_orbit, discriminant,
                       monodromy, monodromy_dirichlet_test, transfer_product)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Reproduction:
    name: str
    passed: bool
    checks: tuple
    data: dict


def _finish(name, checks, data):
    return Reproduction(name=name, passed=all(c.passed for c in checks),
                        checks=tuple(checks), data=data)


def halfline_dirichlet_defect():
    """Word (1/2, 2, 1/2): the full-line operator is invertible at 0, yet
    the Dirichlet half-line compression has 0 as an eigenvalue, with defect
    vector halving every period. Finite sections of the half-line operator
    must fail."""
    checks = []
    w = periodic([Fraction(1, 2), 2, Fraction(1, 2)])
    m = monodromy(w, 0)
    checks.append(Check(
        "monodromy_at_zero", m.entries() == (2, 0, 0, Fraction(1, 2)),
        "M(0) entries %s, expected (2, 0, 0, 1/2)" % (m.entries(),)))
    dv = discriminant(w).value(0)
    checks.append(Check(
        "discriminant_at_zero", dv == Fraction(5, 2),
        "disc(0) = %s, expected 5/2" % dv))
    fred = is_fredholm(w, 0, "half_line")
    checks.append(Check(
        "halfline_fredholm", fred.fredholm,
        "0 lies in a spectral gap: %s" % (fred.side_position,)))
    inv = halfline_invertible(w, 0)
    checks.append(Check(
        "halfline_singular", (not inv.invertible) and inv.status == "eigenvalue",
        "half-line status %s (multiplier %s)"
        % (inv.status, inv.detail.get("multiplier"))))
    rep_full = fsm_applicability(w, 0, "full_line")
    checks.append(Check(
        "fullline_invertible", rep_full.conditions["a"].holds is True,
        rep_full.conditions["a"].summary))
    ds = dirichlet_eigenvalues(w)
    exact_zero = any(e.lo == 0 and e.hi == 0 for e in ds.eigenvalues)
    checks.append(Check(
        "dirichlet_eigenvalue_zero", exact_zero,
        "eigenvalues %s (exact zero found: %s)"
        % ([e.approx for e in ds.eigenvalues], exact_zero)))
    spec300 = truncation_spectrum(w, 300)
    mu = float(min(abs(v) for v in spec300))
    checks.append(Check(
        "truncation_crossvalidation", mu < 1e-6,
        "nearest eigenvalue of the size-300 half-line section: %.3e" % mu))
    orbit = dirichlet_orbit(w, 0, 31)
    halving = all(orbit.value(3 * k) == Fraction(1, 2 ** k) for k in range(11))
    checks.append(Check(
        "defect_halves_per_period", halving,
        "orbit x(3k) = 2^-k exactly for k <= 10: %s" % halving))
    ops = limit_operators(w, side="right")
    checks.append(Check(
        "three_limit_operators", len(ops) == 3,
        "%d distinct right limit words" % len(ops)))
    sc = stability_scan(w, 0, range(6, 40, 3), "half_line", period=3)
    ratio_ok = abs(sc.ratio_per_period - 0.5) < 0.05
    checks.append(Check(
        "sigma_min_halves_per_period",
        sc.classification == "geometric_decay" and ratio_ok,
        "sigma_min %s, fitted ratio %.4f per period"
        % (sc.classification, sc.ratio_per_period)))
    scheme = SectionScheme(operator="half_line",
                           right=CutoffSequence.arithmetic(6, 6))
    fr = run_fsm(w, 0, scheme, count=10)
    checks.append(Check(
        "halfline_fsm_fails", fr.verdict == "failure_observed",
        "half-line sections verdict %s (%s)" % (fr.verdict, "; ".join(fr.reasons))))
    data = {
        "word": ["1/2", "2", "1/2"],
        "monodromy": [str(v) for v in m.entries()],
        "discriminant_at_zero": str(dv),
        "dirichlet_eigenvalues": [e.approx for e in ds.eigenvalues],
        "stability_ratio_per_period": sc.ratio_per_period,
        "fsm_verdict": fr.verdict,
    }
    return _finish("example-4-1", checks, data)


def twosided_kernel():
    """Left word 110001100011, right word 10101: every one-sided limit
    compression is invertible at 0, but the full-line operator kills an
    explicit vector built from the contracting eigendirection of the
    one-period transfer."""
    checks = []
    p = eventually_periodic(left_word=(1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1),
                            core=(), core_start=0,
                            right_word=(1, 0, 1, 0, 1))
    window = "".join(str(p.value(n)) for n in range(-12, 5))
    checks.append(Check(
        "potential_window", window == "110001100011" + "10101",
        "v on [-12, 4] = %s" % window))
    m = transfer_product(p, 0, 0, 4)
    checks.append(Check(
        "right_monodromy", m.entries() == (0, 1, -1, -3) and m.trace() == -3,
        "T1 T0 T1 T0 T1 = %s, trace %s" % (m.entries(), m.trace())))
    t0 = TransferMatrix.single(0, 0)
    t1 = TransferMatrix.single(1, 0)
    t0_4 = t0 @ t0 @ t0 @ t0
    t1_3 = t1 @ t1 @ t1
    checks.append(Check(
        "transfer_orders",
        t0_4.entries() == (1, 0, 0, 1) and t1_3.entries() == (1, 0, 0, 1),
        "T0^4 = %s, T1^3 = %s (so T0 = T0^-3, T1 = T1^-2 exactly)"
        % (t0_4.entries(), t1_3.entries())))
    back = transfer_product(p, 0, -12, -1).inverse()
    checks.append(Check(
        "left_period_backstep", back.entries() == m.entries(),
        "inverse transfer across one left period = %s, equals the right "
        "monodromy" % (back.entries(),)))

    lam = (-3 + math.sqrt(5)) / 2  # contracting eigenvalue of m
    lo, hi = -240, 100
    xs = {-1: 1.0, 0: lam}
    for n in range(0, hi):
        xs[n + 1] = -p.value(n) * xs[n] - xs[n - 1]
    for n in range(-1, lo, -1):
        xs[n - 1] = -p.value(n) * xs[n] - xs[n + 1]
    norm = math.sqrt(sum(v * v for v in xs.values()))
    res = math.sqrt(sum(
        (xs[n - 1] + p.value(n) * xs[n] + xs[n + 1]) ** 2
        for n in range(lo + 1, hi)))
    rel = res / norm
    checks.append(Check(
        "kernel_residual", rel < 1e-10,
        "relative residual of the kernel vector on [%d, %d]: %.3e"
        % (lo, hi, rel)))
    refl = max(abs(xs[-12 * k] - xs[5 * k]) for k in range(1, 9))
    checks.append(Check(
        "backward_forward_identity", refl < 1e-10,
        "max |x(-12k) - x(5k)| for k <= 8: %.3e" % refl))
    ratios = [abs(xs[5 * (k + 1)] / xs[5 * k]) for k in range(0, 8)]
    target = (3 - math.sqrt(5)) / 2
    ratio_err = max(abs(r - target) for r in ratios)
    checks.append(Check(
        "decay_ratio", ratio_err < 1e-9,
        "|x(5k+5)/x(5k)| = (3 - sqrt 5)/2 up to %.3e" % ratio_err))
    tails = max(abs(xs[hi]), abs(xs[lo])) / max(abs(v) for v in xs.values())
    checks.append(Check(
        "two_sided_decay", tails < 1e-6,
        "window endpoint mass ratio %.3e" % tails))

    rep = fsm_applicability(p, 0, "full_line")
    checks.append(Check(
        "onesided_conditions_hold",
        rep.conditions["b"].holds is True and rep.conditions["c"].holds is True,
        "b: %s; c: %s" % (rep.conditions["b"].summary,
                          rep.conditions["c"].summary)))
    checks.append(Check(
        "kernel_decided_exactly",
        rep.conditions["a"].holds is False and rep.applicable is False,
        "a: %s; applicable: %s" % (rep.conditions["a"].summary,
                                   rep.applicable)))
    data = {
        "trace": -3,
        "eigenvalues": [(-3 - math.sqrt(5)) / 2, lam],
        "kernel_residual": rel,
        "reflection_defect": refl,
        "decay_ratio_per_right_period": target,
        "window": [lo, hi],
    }
    return _finish("example-4-2", checks, data)


_SUBSTITUTION = {1: (1, 0), 0: (1,)}


def substitution_word(length):
    """Fixed point of 1 -> 10, 0 -> 1, starting from 1; first `length`
    symbols, independent oracle for the closed-form evaluation."""
    word = [1]
    while len(word) < length:
        word = [s for c in word for s in _SUBSTITUTION[c]]
    return word[:length]


def fibonacci_prefix(length=10000):
    """Closed-form golden-mean word versus the substitution oracle, plus the
    grid conditions that single out the admissible value rings."""
    checks = []
    p = sturmian()
    word = [p.value(n) for n in range(1, length + 1)]
    oracle = substitution_word(length)
    agree = word == oracle
    checks.append(Check(
        "substitution_match", agree,
        "closed form equals substitution word on 1..%d: %s" % (length, agree)))
    checks.append(Check(
        "prefix", word[:5] == [1, 0, 1, 1, 0],
        "first symbols %s, expected [1, 0, 1, 1, 0]" % (word[:5],)))
    checks.append(Check(
        "values_binary", set(word) == {0, 1},
        "value set %s" % sorted(set(word))))
    rings = {n: validate_ring(RingSpec(n)) for n in range(1, 9)}
    v1, v4, v5 = rings[1], rings[4], rings[5]
    checks.append(Check(
        "ring_integers", v1.valid, "order 1 (integer grid): %s" % v1.reason))
    checks.append(Check(
        "ring_gaussian_integers", v4.valid,
        "order 4 (square grid): %s" % v4.reason))
    checks.append(Check(
        "ring_five_rejected", (not v5.valid) and v5.witness is not None,
        "order 5 rejected: %s (witness modulus %.6f)"
        % (v5.reason, v5.witness_modulus)))
    data = {
        "length": length,
        "prefix": word[:10],
        "ring_orders_valid": [n for n, v in rings.items() if v.valid],
    }
    return _finish("fibonacci-prefix", checks, data)


def random_integer_potential(seed, stream):
    """Deterministic corpus member: integer word over [-5, 5], period 1-8."""
    rng = CounterRng(seed, stream)
    period = rng.randint(1, 8)
    word = [rng.randint(-5, 5) for _ in range(period)]
    return periodic(word)


def integer_avoidance(seed=1, count=1000):
    """Exhaustive exact sweep: gaps of integer periodic potentials contain
    no Dirichlet eigenvalues, and m12 = 0 always forces |m22| = 1."""
    checks = []
    potentials = 0
    points = 0
    gap_points = 0
    m12_zero = 0
    not_unimodular = 0
    violations = []
    for i in range(count):
        p = random_integer_potential(seed, i)
        potentials += 1
        word = [p.value(n) for n in range(p.period)]
        for z in range(min(word) - 3, max(word) + 4):
            points += 1
            res = monodromy_dirichlet_test(p, z)
            if res.m12 == 0:
                m12_zero += 1
                if abs(res.m22) != 1:
                    not_unimodular += 1
                    violations.append((word, z, "m12 = 0 with |m22| != 1"))
            if abs(res.trace) > 2:
                gap_points += 1
                if res.status != "gap_no_dirichlet":
                    violations.append((word, z, "status %s" % res.status))
            elif res.status != "not_gap":
                violations.append((word, z, "status %s" % res.status))
    checks.append(Check(
        "no_violations", not violations,
        "0 violations over %d potentials" % potentials if not violations
        else "violations: %s" % violations[:3]))
    checks.append(Check(
        "gap_points_seen", gap_points > 0,
        "%d sweep points, %d in gaps" % (points, gap_points)))
    if not m12_zero:
        detail = "no sweep point has m12 = 0"
    elif not_unimodular:
        detail = "m12 = 0 with |m22| != 1 at %d of %d points" % (
            not_unimodular, m12_zero)
    else:
        detail = "m12 = 0 certified |m22| = 1 at %d points" % m12_zero
    checks.append(Check("unimodular_certificates", not not_unimodular, detail))
    data = {"seed": seed, "count": count, "points": points,
            "gap_points": gap_points, "m12_zero_points": m12_zero,
            "violations": len(violations)}
    return _finish("integer-avoidance", checks, data)


REPRODUCTIONS = {
    "example-4-1": halfline_dirichlet_defect,
    "example-4-2": twosided_kernel,
    "fibonacci-prefix": fibonacci_prefix,
    "integer-avoidance": integer_avoidance,
}


def run_reproduction(name, **kwargs):
    if name not in REPRODUCTIONS:
        raise KeyError("unknown reproduction %r (choose from %s)"
                       % (name, sorted(REPRODUCTIONS)))
    return REPRODUCTIONS[name](**kwargs)
