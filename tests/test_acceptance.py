"""End-to-end acceptance checks, one test per shipped criterion.

Each test enforces its stated tolerances and runtime budget and records a
single PASS/FAIL line that conftest.py prints in the run summary. Beside
criteria 3 and 4, a property test states the paper's claim about integer
potentials at integer points exactly; it records no line.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import schrod1d.fsm as fsm
import schrod1d.limitops as lo
import schrod1d.potential as pot
import schrod1d.spectral as sp
import schrod1d.transfer as tr
from schrod1d.prng import CounterRng
from schrod1d.reproduce import random_integer_potential, run_reproduction
from schrod1d.rings import RingSpec, validate_ring
from acceptance_report import record
from oracles import (bareiss_determinant, constant4_eigenvalues,
                     dense_section, golden_word)


def _finish(number, failures, detail, elapsed, limit=None):
    if limit is not None and elapsed > limit:
        failures.append("runtime %.2fs over the %.0fs budget"
                        % (elapsed, limit))
    record(number, not failures, "%s [%.2fs]" % (detail, elapsed))
    assert not failures, "; ".join(failures)


def test_criterion_1_halfline_defect_example():
    t0 = time.perf_counter()
    failures = []
    w = pot.periodic([F(1, 2), 2, F(1, 2)])
    if tr.discriminant(w).value(0) != F(5, 2):
        failures.append("disc(0) != 5/2")
    if tr.monodromy(w, 0).entries() != (F(2), F(0), F(0), F(1, 2)):
        failures.append("one-period transfer at 0 is not diag(2, 1/2)")
    if not lo.is_fredholm(w, 0, "half_line").fredholm:
        failures.append("half-line compression not Fredholm at 0")
    if not lo.is_fredholm(w, 0, "full_line").fredholm:
        failures.append("full-line operator not Fredholm at 0")
    ds = sp.dirichlet_eigenvalues(w)
    if not any(e.lo == 0 and e.hi == 0 for e in ds.eigenvalues):
        failures.append("no exact Dirichlet eigenvalue at 0")
    mu = float(np.min(np.abs(sp.truncation_spectrum(w, 300))))
    if not mu < 1e-6:
        failures.append("size-300 truncation misses 0: |mu| = %.3e" % mu)
    scan = fsm.stability_scan(w, 0, sizes=range(6, 40, 3), period=3)
    if scan.classification != "geometric_decay" \
            or abs(scan.ratio_per_period - 0.5) >= 0.05:
        failures.append("sigma_min ratio %.4f not in 0.5 +- 0.05"
                        % scan.ratio_per_period)
    if not run_reproduction("example-4-1").passed:
        failures.append("packaged reproduction reported failure")
    elapsed = time.perf_counter() - t0
    _finish(1, failures,
            "half-line defect word (1/2, 2, 1/2): exact monodromy and "
            "eigenvalue 0, truncation |mu| = %.1e, sigma ratio %.3f"
            % (mu, scan.ratio_per_period), elapsed, limit=5.0)


def test_criterion_2_twosided_kernel_example():
    t0 = time.perf_counter()
    failures = []
    m = tr.monodromy(pot.periodic([1, 0, 1, 0, 1]), 0)
    if m.trace() != -3:
        failures.append("five-site transfer trace != -3")
    s0 = tr.TransferMatrix.single(0, 0)
    s1 = tr.TransferMatrix.single(1, 0)
    if (s0 @ s0 @ s0).inverse().entries() != s0.entries():
        failures.append("zero step is not the inverse of its own cube")
    if (s1 @ s1).inverse().entries() != s1.entries():
        failures.append("one step is not the inverse of its own square")
    rep = run_reproduction("example-4-2")
    if rep.data["kernel_residual"] >= 1e-10:
        failures.append("kernel residual %.3e >= 1e-10"
                        % rep.data["kernel_residual"])
    if rep.data["reflection_defect"] >= 1e-10:
        failures.append("reflection defect %.3e >= 1e-10"
                        % rep.data["reflection_defect"])
    if not rep.passed:
        failures.append("packaged reproduction failed: %s"
                        % [c.name for c in rep.checks if not c.passed])
    elapsed = time.perf_counter() - t0
    _finish(2, failures,
            "two-sided kernel word: integer identities exact, kernel "
            "residual %.1e, reflection defect %.1e"
            % (rep.data["kernel_residual"], rep.data["reflection_defect"]),
            elapsed, limit=1.0)


def test_criterion_3_integer_gap_sweep():
    t0 = time.perf_counter()
    failures = []
    count = 1000
    gap_points = 0
    m12_zero = 0
    violations = []
    for k in range(count):
        p = random_integer_potential(1, k)
        disc = tr.discriminant(p)
        vals = [p.value(n) for n in range(p.period)]
        for z in range(min(vals) - 3, max(vals) + 4):
            if abs(disc.value(z)) <= 2:
                continue
            gap_points += 1
            res = tr.monodromy_dirichlet_test(p, z)
            if res.status != "gap_no_dirichlet":
                violations.append((tuple(vals), z, res.status))
            if res.m12 == 0:
                m12_zero += 1
                if abs(res.m22) != 1:
                    violations.append((tuple(vals), z, "|m22| != 1"))
    if violations:
        failures.append("%d violations, first %r"
                        % (len(violations), violations[0]))
    if gap_points == 0:
        failures.append("sweep produced no gap points")
    rep = run_reproduction("integer-avoidance", seed=1, count=count)
    if not (rep.passed and rep.data["violations"] == 0):
        failures.append("packaged sweep disagrees: %r" % rep.data)
    if rep.data["m12_zero_points"] == 0:
        failures.append("packaged sweep met no m12 = 0 point")
    elapsed = time.perf_counter() - t0
    _finish(3, failures,
            "%d integer words, %d gap points, %d with vanishing corner "
            "entry, 0 Dirichlet certificates" % (count, gap_points, m12_zero),
            elapsed, limit=60.0)


def _random_cutoffs(rng, need):
    if rng.randint(0, 3) == 0:
        return fsm.CutoffSequence.geometric(rng.randint(8, 12), 1.4)
    start = rng.randint(8, 16)
    step_floor = max(14, -(-(need - start) // 11))
    return fsm.CutoffSequence.arithmetic(start,
                                         rng.randint(step_floor,
                                                     step_floor + 16))


def _compression_points(word):
    """Dirichlet points of every half-line compression a growing window can
    cut out of the word: all start phases, both orientations.

    Float oracle: roots of the rotated monodromy's upper-right entry, kept
    when the lower-right entry is contracting there.  Returns (|mu|, rotated
    word) pairs; the rotated word, read from site 0, has that compression.
    """
    out = []
    for w in (list(word), list(word)[::-1]):
        for k in range(len(w)):
            rotated = w[k:] + w[:k]
            _, m12, _, m22 = tr.symbolic_monodromy(pot.periodic(rotated))
            c12 = [float(c) for c in m12]
            if len(c12) < 2:
                continue
            for root in np.roots(c12[::-1]):
                if abs(root.imag) > 1e-9:
                    continue
                mu = float(root.real)
                if abs(np.polyval([float(c) for c in m22][::-1], mu)) < 1:
                    out.append((abs(mu), rotated))
    return out


def _certified_witness(points, dist):
    """Exact witness that a compression point sits closer to 0 than the bands.

    Takes the compression the float oracle names as closest to 0 and
    certifies its Dirichlet eigenvalue over Q.  The eigenvalue must match
    the oracle to 1e-10, its isolating interval must lie strictly inside
    (-dist, dist) and contain no integer.  Returns (|mu|, None) for a
    witness, (None, reason) otherwise.
    """
    if not points:
        return None, "no compression point at all"
    oracle, rotated = min(points)
    ds = sp.dirichlet_eigenvalues(pot.periodic(rotated))
    matches = [e for e in ds.eigenvalues
               if abs(abs(e.approx) - oracle) <= 1e-10]
    if not matches:
        return None, ("no certified eigenvalue of rotation %r within 1e-10 "
                      "of oracle point %.3e" % (tuple(rotated), oracle))
    e = matches[0]
    if not -dist < e.lo <= e.hi < dist:
        return None, ("eigenvalue [%s, %s] of rotation %r not inside the "
                      "band distance %.3e" % (e.lo, e.hi, tuple(rotated), dist))
    if math.floor(e.hi) >= e.lo:
        return None, ("eigenvalue [%s, %s] of rotation %r meets an integer"
                      % (e.lo, e.hi, tuple(rotated)))
    return abs(e.approx), None


def test_criterion_4_fsm_applicable_corpus():
    """Sections of gap-certified integer words stay uniformly invertible.

    Two floors are tracked for the trailing sigma_min values.  The distance
    from 0 to the bands alone is not a lower bound: section singular values
    accumulate at the distance from 0 to the bands together with the
    Dirichlet points of the two half-line compressions the random cuts leave
    behind, and those points may lie (at non-integer energies) closer to 0
    than the bands do.  The compression-aware floor, which includes the
    cut-phase compression points, is asserted at half its value.

    Every run whose tail dips under half the band distance must be explained
    exactly: the compression the float oracle names as closest to 0 has a
    Dirichlet eigenvalue certified over Q, matching the oracle to 1e-10,
    isolated strictly inside the band distance and away from every integer,
    and the tail is at least half its modulus.  At least one run must dip,
    so the finding that the band distance is no floor stays asserted.
    """
    t0 = time.perf_counter()
    failures = []
    target = 100
    accepted = 0
    stream = 0
    min_band_ratio = float("inf")
    min_floor_ratio = float("inf")
    verdict_bad = []
    band_dips = []
    witness_bad = []
    full_floor_bad = []
    while accepted < target and stream < 3000:
        rng = CounterRng(20260814, stream)
        stream += 1
        period = rng.randint(1, 8)
        word = [rng.randint(-5, 5) for _ in range(period)]
        p = pot.periodic(word)
        disc = tr.discriminant(p)
        adisc = abs(disc.value(0))
        if adisc <= 2:
            continue
        accepted += 1
        bs = sp.bands(disc)
        dist = bs.distance_to_spectrum(0)
        points = _compression_points(word)
        floor = min([dist] + [d for d, _ in points])
        # window sizes large enough for the a priori decay rate, with
        # randomized bases, steps and asymmetry on top
        lam = (float(adisc) - math.sqrt(float(adisc) ** 2 - 4)) / 2
        need = int(period * (math.log(1e10) + math.log(1 / floor))
                   / -math.log(lam)) + 16
        scheme = fsm.SectionScheme(operator="full_line",
                                   right=_random_cutoffs(rng, need),
                                   left=_random_cutoffs(rng, need))
        report = fsm.run_fsm(p, 0, scheme, count=12)
        if report.verdict != "applicable_observed":
            verdict_bad.append((tuple(word), report.verdict, report.reasons))
            continue
        tail = min(row.sigma_min
                   for row in report.rows[len(report.rows) // 2:])
        min_band_ratio = min(min_band_ratio, tail / dist)
        min_floor_ratio = min(min_floor_ratio, tail / floor)
        if tail < 0.5 * dist:
            band_dips.append(tuple(word))
            mu, reason = _certified_witness(points, dist)
            if mu is not None and tail < 0.5 * mu:
                reason = ("sigma tail %.3e under half of certified "
                          "compression point %.3e" % (tail, mu))
            if reason is not None:
                witness_bad.append((tuple(word), reason))
        if tail < 0.5 * floor:
            full_floor_bad.append((tuple(word),
                                   "sigma tail %.3e under half of limit "
                                   "floor %.3e" % (tail, floor)))
    if accepted < target:
        failures.append("only %d corpus members found" % accepted)
    if verdict_bad:
        failures.append("%d non-applicable runs, first %r"
                        % (len(verdict_bad), verdict_bad[0]))
    if not band_dips:
        failures.append("no run dips under half the band distance")
    if witness_bad:
        failures.append("%d dips under half the band distance without a "
                        "certified compression witness, first %r"
                        % (len(witness_bad), witness_bad[0]))
    if full_floor_bad:
        failures.append("%d runs under half the compression-aware floor, "
                        "first %r" % (len(full_floor_bad), full_floor_bad[0]))
    elapsed = time.perf_counter() - t0
    _finish(4, failures,
            "%d gap-certified words, %d non-applicable, sigma tail vs band "
            "distance min ratio %.4f (%d under 0.5), vs compression-aware "
            "floor min ratio %.4f (%d under 0.5), %d of %d dips explained "
            "by certified non-integer compression eigenvalues"
            % (accepted, len(verdict_bad), min_band_ratio, len(band_dips),
               min_floor_ratio, len(full_floor_bad),
               len(band_dips) - len(witness_bad), len(band_dips)),
            elapsed, limit=300.0)


_INTEGER_WORDS = st.lists(st.integers(min_value=-5, max_value=5), min_size=1,
                         max_size=6)


@given(_INTEGER_WORDS, st.lists(st.integers(min_value=-5, max_value=5),
                                max_size=4),
       st.integers(min_value=-6, max_value=6), _INTEGER_WORDS,
       st.integers(min_value=-8, max_value=8))
@settings(max_examples=150, deadline=None)
def test_integer_fredholm_points_reduce_to_condition_a(left, core, start,
                                                       right, z):
    """The paper's claim behind criteria 3 and 4, decided exactly: for an
    integer eventually periodic potential at integer z with H - z Fredholm,
    no limit compression has z as a Dirichlet eigenvalue, so conditions
    (b), (c) and (e) hold and the FSM applies iff H - z is invertible."""
    p = pot.eventually_periodic(left, core, start, right)
    assume(lo.is_fredholm(p, z).fredholm)
    full = lo.fsm_applicability(p, z)
    assert full.conditions["b"].holds is True
    assert full.conditions["c"].holds is True
    assert full.applicable is full.conditions["a"].holds
    half = lo.fsm_applicability(p, z, "half_line")
    assert half.conditions["e"].holds is True


def test_criterion_5_exact_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for k in range(200):
        rng = CounterRng(5, k)
        period = rng.randint(1, 6)
        word = [F(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(period)]
        p = pot.periodic(word)
        z = F(rng.randint(-8, 8), rng.randint(1, 5))
        for left in range(-6, 7):
            for size in range(0, 10):
                l, r = left, left + size - 1
                got = tr.finite_section_determinant(p, z, l, r)
                ref = bareiss_determinant(dense_section(p, z, l, r))
                checked += 1
                if got != ref:
                    failures.append("determinant mismatch word %s z %s "
                                    "section [%d, %d]" % (word, z, l, r))
    worst = 0.0
    c4 = pot.periodic([4])
    for m in range(1, 201):
        diff = np.max(np.abs(sp.truncation_spectrum(c4, m)
                             - np.array(constant4_eigenvalues(m))))
        worst = max(worst, float(diff))
    if worst >= 1e-10:
        failures.append("closed-form eigenvalue deviation %.3e" % worst)
    elapsed = time.perf_counter() - t0
    _finish(5, failures,
            "%d exact determinants match, eigenvalue deviation %.1e over "
            "sizes 1..200" % (checked, worst), elapsed)


def test_criterion_6_free_word_section_determinants():
    t0 = time.perf_counter()
    failures = []
    p = pot.periodic([0])
    for size in range(0, 401):
        d = tr.finite_section_determinant(p, 0, 0, size - 1)
        if size % 2 == 1:
            if d != 0:
                failures.append("odd size %d determinant %s != 0" % (size, d))
        elif d != (-1) ** (size // 2):
            failures.append("even size %d determinant %s" % (size, d))
    elapsed = time.perf_counter() - t0
    _finish(6, failures,
            "free word sections: odd sizes <= 399 singular, even size 2k "
            "determinant (-1)^k, all exact", elapsed)


def test_criterion_7_golden_word_and_value_rings():
    t0 = time.perf_counter()
    failures = []
    length = 10000
    word = [pot.fibonacci_value(n) for n in range(1, length + 1)]
    if word != golden_word(length):
        failures.append("closed form disagrees with the block oracle")
    if word[:5] != [1, 0, 1, 1, 0]:
        failures.append("prefix %s != [1, 0, 1, 1, 0]" % word[:5])
    for order in (1, 4):
        if not validate_ring(RingSpec(order)).valid:
            failures.append("order-%d grid wrongly rejected" % order)
    five = validate_ring(RingSpec(5))
    if five.valid:
        failures.append("order-5 grid wrongly accepted")
    elif not (five.witness and 0 < five.witness_modulus < 1):
        failures.append("order-5 rejection lacks a usable witness")
    elapsed = time.perf_counter() - t0
    _finish(7, failures,
            "golden word matches substitution on 1..%d, grids accepted for "
            "orders 1 and 4, order 5 rejected (witness modulus %.4f)"
            % (length, five.witness_modulus), elapsed)


def test_criterion_8_two_sided_essential_spectrum():
    t0 = time.perf_counter()
    failures = []
    p = pot.eventually_periodic([0], [], 0, [4])
    ess = lo.essential_spectrum(p)
    if ess.intervals != ((-2.0, 6.0),):
        failures.append("merged intervals %r != ((-2, 6),)" % (ess.intervals,))
    width = F(1, 10 ** 12)
    for side, targets in (("left", (-2, 2)), ("right", (2, 6))):
        bs = ess.side_bands[side]
        if len(bs.bands) > bs.period:
            failures.append("%s side has more bands than its period" % side)
        for edge, target in zip(bs.edges, targets):
            if not (edge.lo <= target <= edge.hi
                    and edge.hi - edge.lo <= width):
                failures.append("%s edge near %d not isolated to 1e-12"
                                % (side, target))
    if not (ess.contains(0) and ess.contains(4) and not ess.contains(7)):
        failures.append("membership tests wrong")
    elapsed = time.perf_counter() - t0
    _finish(8, failures,
            "left-free/right-constant junction: essential spectrum [-2, 6], "
            "edges isolated to 1e-12, band counts within periods", elapsed)
