import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schrod1d.fsm as fsm
import schrod1d.potential as pot
from schrod1d.jsonio import dumps
from schrod1d.limitops import fsm_applicability
from oracles import fullline_constant4_x0, halfline_constant4_x0


def scheme_full(start=4, step=4, left_start=5, left_step=3):
    return fsm.SectionScheme(
        operator="full_line",
        right=fsm.CutoffSequence.arithmetic(start, step),
        left=fsm.CutoffSequence.arithmetic(left_start, left_step))


def scheme_half(start=6, step=6):
    return fsm.SectionScheme(operator="half_line",
                             right=fsm.CutoffSequence.arithmetic(start, step))


def test_cutoff_sequences():
    a = fsm.CutoffSequence.arithmetic(4, 3)
    assert [a.value(n) for n in range(4)] == [4, 7, 10, 13]
    g = fsm.CutoffSequence.geometric(8, 1.5)
    vals = [g.value(n) for n in range(6)]
    assert vals[0] == 8 and all(b > a for a, b in zip(vals, vals[1:]))
    e = fsm.CutoffSequence.explicit([3, 5, 9])
    assert [e.value(n) for n in range(3)] == [3, 5, 9]
    assert e.count_limit() == 3
    with pytest.raises(IndexError):
        e.value(3)
    with pytest.raises(IndexError):
        a.value(-1)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        fsm.CutoffSequence.arithmetic(0, 4)
    with pytest.raises(ValueError):
        fsm.CutoffSequence.geometric(8, 1.0)
    with pytest.raises(ValueError):
        fsm.CutoffSequence.explicit([3, 3, 5])
    with pytest.raises(ValueError):
        fsm.CutoffSequence.explicit([])


def test_scheme_sections():
    s = scheme_full()
    assert s.section(0) == (-5, 4)
    assert s.section(2) == (-11, 12)
    secs = s.sections(4)
    assert all(l1 <= l0 and r1 > r0
               for (l0, r0), (l1, r1) in zip(secs, secs[1:]))
    h = scheme_half()
    assert h.section(0) == (0, 6)
    with pytest.raises(ValueError):
        fsm.SectionScheme(operator="half_line",
                          right=fsm.CutoffSequence.arithmetic(),
                          left=fsm.CutoffSequence.arithmetic())
    with pytest.raises(ValueError):
        fsm.SectionScheme(operator="full_line",
                          right=fsm.CutoffSequence.arithmetic())
    with pytest.raises(ValueError):
        fsm.SectionScheme(operator="sideways",
                          right=fsm.CutoffSequence.arithmetic())


def test_sections_past_the_cap_are_refused_before_any_is_built(monkeypatch):
    # a huge count must not build every section before it reaches the cap
    built = []
    section = fsm.SectionScheme.section
    monkeypatch.setattr(fsm.SectionScheme, "section",
                        lambda self, n: built.append(n) or section(self, n))
    with pytest.raises(ValueError, match="cap"):
        scheme_half().sections(10 ** 6)
    assert built == [10 ** 6 - 1]


def test_sections_past_the_sites_cap_are_refused_as_they_are_built(
        monkeypatch):
    built = []
    section = fsm.SectionScheme.section
    monkeypatch.setattr(fsm.SectionScheme, "section",
                        lambda self, n: built.append(n) or section(self, n))
    scheme = fsm.SectionScheme(operator="half_line",
                               right=fsm.CutoffSequence.arithmetic(1, 1))
    with pytest.raises(ValueError, match="sites"):
        scheme.sections(2 ** 20)
    sizes = [n + 2 for n in built[1:]]  # section n is [0, n + 1]
    assert sum(sizes[:-1]) <= fsm.SECTION_SITES_CAP < sum(sizes)


def test_grid_vector():
    v = fsm.GridVector.from_array(-2, [1.0, 2.0, 3.0])
    assert v.stop == 1
    assert v.value(-2) == 1.0 and v.value(0) == 3.0 and v.value(5) == 0.0
    assert v.norm() == pytest.approx(math.sqrt(14))
    d = fsm.GridVector.delta(3)
    assert d.value(3) == 1.0 and d.norm() == 1.0
    assert v.diff_norm(v) == 0.0
    w = fsm.GridVector.from_array(0, [3.0, 1.0])
    # union window [-2, 1]: diff (1, 2, 0, -1)
    assert v.diff_norm(w) == pytest.approx(math.sqrt(6))


def test_solve_section_matches_dense():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    l, r = -7, 9
    x, resid = fsm.solve_section(p, 0, l, r, fsm.GridVector.delta(0))
    assert resid <= 1e-10
    size = r - l + 1
    a = np.zeros((size, size))
    for i in range(size):
        a[i, i] = float(p.value(l + i))
        if i + 1 < size:
            a[i, i + 1] = a[i + 1, i] = 1.0
    b = np.zeros(size)
    b[-l] = 1.0
    ref = np.linalg.solve(a, b)
    assert np.max(np.abs(x.array() - ref)) < 1e-10


def test_singular_section_raises():
    p = pot.periodic([0])
    with pytest.raises(fsm.SectionSingularError) as exc:
        fsm.solve_section(p, 0, 0, 4, fsm.GridVector.delta(0))
    assert exc.value.l == 0 and exc.value.r == 4
    assert exc.value.sigma_min < 1e-10
    # even sizes are fine
    x, resid = fsm.solve_section(p, 0, 0, 5, fsm.GridVector.delta(0))
    assert resid <= 1e-10


def test_reference_solution_closed_forms():
    p = pot.periodic([4])
    rhs = fsm.GridVector.delta(0)
    half = fsm.reference_solution(p, 0, rhs, operator="half_line")
    assert abs(half.vector.value(0) - halfline_constant4_x0()) < 1e-12
    full = fsm.reference_solution(p, 0, rhs, operator="full_line")
    assert abs(full.vector.value(0) - fullline_constant4_x0()) < 1e-12
    assert full.tail_mass < 1e-12 and full.doubling_change < 1e-12
    # symmetric decay away from the impulse
    assert abs(full.vector.value(5) - full.vector.value(-5)) < 1e-14


def test_reference_inconclusive_in_band():
    p = pot.periodic([0])
    with pytest.raises(fsm.ReferenceInconclusive):
        fsm.reference_solution(p, 0, fsm.GridVector.delta(0),
                               operator="full_line")


def test_run_fsm_applicable():
    p = pot.periodic([4])
    rep = fsm.run_fsm(p, 0, scheme_full(), count=10)
    assert rep.verdict == "applicable_observed"
    errs = [row.solution_error for row in rep.rows]
    assert errs[-1] < 1e-8
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    assert all(not row.singular for row in rep.rows)
    assert rep.reference is not None


def test_run_fsm_failure_from_halfline_defect():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    rep = fsm.run_fsm(p, 0, scheme_half(), count=10)
    assert rep.verdict == "failure_observed"
    assert any("inverse norms" in r or "singular" in r for r in rep.reasons)


def test_run_fsm_applicable_past_a_singular_first_section():
    # word [-3, 0, 0] at z = 0: 0 lies in a gap and every one-sided
    # compression is invertible, so the FSM applies, yet the first section
    # [-1, 1] has determinant exactly 0. The FSM asks invertibility of all
    # but finitely many sections, so that row witnesses no failure.
    p = pot.periodic([-3, 0, 0])
    cutoffs = fsm.CutoffSequence.arithmetic(1, 18)
    scheme = fsm.SectionScheme("full_line", right=cutoffs, left=cutoffs)
    rep = fsm.run_fsm(p, 0, scheme, count=10)
    assert (rep.rows[0].l, rep.rows[0].r, rep.rows[0].singular) == (-1, 1, True)
    assert fsm_applicability(p, 0, "full_line").applicable is True
    assert rep.verdict == "applicable_observed"


@pytest.mark.parametrize("bad_row", [0, 4, 5, 9])
def test_singular_sections_witness_failure_past_the_settling_rows(
        monkeypatch, bad_row):
    # rows 0 .. SETTLE_ROWS - 1 may be singular; a later one is a failure
    scheme = scheme_full()
    bad = scheme.section(bad_row)
    solve = fsm.solve_section

    def singular_at_bad(p, z, l, r, rhs):
        if (l, r) == bad:
            raise fsm.SectionSingularError(l, r, 0.0)
        return solve(p, z, l, r, rhs)
    monkeypatch.setattr(fsm, "solve_section", singular_at_bad)
    rep = fsm.run_fsm(pot.periodic([4]), 0, scheme, count=10)
    assert rep.rows[bad_row].singular
    if bad_row < fsm.SETTLE_ROWS:
        assert rep.verdict == "applicable_observed"
    else:
        assert rep.verdict == "failure_observed"
        assert "singular section encountered" in rep.reasons


def test_run_fsm_inconclusive_without_reference():
    p = pot.periodic([0])
    scheme = fsm.SectionScheme(operator="full_line",
                               right=fsm.CutoffSequence.explicit([5, 11, 17, 23]),
                               left=fsm.CutoffSequence.explicit([6, 12, 18, 24]))
    rep = fsm.run_fsm(p, 0, scheme, count=8)
    assert rep.verdict in ("inconclusive", "failure_observed")
    assert rep.reference is None
    assert rep.reference_failure is not None


def test_run_fsm_respects_explicit_count_limit():
    p = pot.periodic([4])
    scheme = fsm.SectionScheme(operator="half_line",
                               right=fsm.CutoffSequence.explicit([4, 9, 13]))
    rep = fsm.run_fsm(p, 0, scheme, count=10)
    assert len(rep.rows) == 3


def test_stability_scan_bounded():
    scan = fsm.stability_scan(pot.periodic([4]), 0, sizes=range(6, 40, 3))
    assert scan.classification == "bounded_below"
    assert abs(scan.slope_per_step) <= 1e-3
    assert min(scan.sigma_mins) > 1.9


def test_stability_scan_decay():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    scan = fsm.stability_scan(p, 0, sizes=range(6, 40, 3), period=3)
    assert scan.classification == "geometric_decay"
    assert abs(scan.ratio_per_period - 0.5) < 0.05


def test_stability_scan_needs_sizes():
    with pytest.raises(ValueError):
        fsm.stability_scan(pot.periodic([4]), 0, sizes=(4, 8, 12))


def test_stability_scan_rejects_unknown_operator():
    with pytest.raises(ValueError, match="operator must be"):
        fsm.stability_scan(pot.periodic([4]), 0, sizes=(4, 8, 12, 16),
                           operator="bogus")


def test_report_json_round_trip():
    from schrod1d.jsonio import dumps
    p = pot.periodic([4])
    rep = fsm.run_fsm(p, 0, scheme_half(), count=6)
    doc = rep.to_json()
    assert doc["verdict"] == rep.verdict
    assert len(doc["rows"]) == 6
    assert dumps(doc) == dumps(rep.to_json())


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                min_size=1, max_size=4),
       st.integers(min_value=2, max_value=18))
@settings(max_examples=40, deadline=None)
def test_solve_section_residuals(word, size):
    p = pot.periodic(word)
    try:
        x, resid = fsm.solve_section(p, F(1, 3), 0, size - 1,
                                     fsm.GridVector.delta(0))
    except fsm.SectionSingularError:
        return
    assert resid <= 1e-10


IDENTITY_CASES = [
    pytest.param(pot.periodic([F(1, 3), -2, 5, F(-7, 4)], phase=2), 0,
                 scheme_full(5, 9, 7, 11), id="rational-periodic-phase"),
    pytest.param(pot.sturmian(10 ** 6), -3,
                 scheme_full(9, 13, 6, 17), id="sturmian-offset"),
    pytest.param(pot.random_values(2 ** 63 + 11, [-4, F(5, 2), 6]), 0,
                 scheme_half(7, 23), id="random-rational-value"),
    pytest.param(pot.periodic([F(1, 2), 2, 0]), 0,
                 scheme_half(6, 6), id="defect-word"),
]


@pytest.mark.parametrize("p,z,scheme", IDENTITY_CASES)
def test_float_layer_matches_site_route(monkeypatch, p, z, scheme):
    # the array builders must reproduce every float of the per-site route
    def outputs():
        report = fsm.run_fsm(p, z, scheme, count=8)
        scan = fsm.stability_scan(p, z, sizes=range(9, 200, 17),
                                  operator=scheme.operator)
        return dumps(report.to_json()), dumps(scan.to_json())

    fast = outputs()
    for cls in (pot.PeriodicPotential, pot.SturmianPotential,
                pot.RandomPotential):
        monkeypatch.setattr(cls, "array", pot.Potential.array)
    assert outputs() == fast
