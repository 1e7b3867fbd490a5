import json
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schrod1d.polynomials as pl
import schrod1d.potential as pot
from schrod1d import cli
import schrod1d.spectral as sp
import schrod1d.transfer as tr
from oracles import (constant4_eigenvalues, constant4_sigma_min, count_below,
                     fraction_sturm_chain, fraction_variations_at,
                     sign_sampled_band_pairs)


int_words = st.lists(st.integers(min_value=-4, max_value=4),
                     min_size=1, max_size=5)


def band_set(word):
    return sp.bands(tr.discriminant(pot.periodic(word)))


def edge_contains(edge, value):
    return edge.lo <= F(value) <= edge.hi and edge.hi - edge.lo <= sp.EDGE_WIDTH


def test_free_band():
    bs = band_set([0])
    assert bs.bands == ((-2.0, 2.0),)
    assert bs.gaps == ()
    assert edge_contains(bs.edges[0], -2) and edge_contains(bs.edges[1], 2)


def test_constant_band_and_distance():
    bs = band_set([4])
    assert bs.bands == ((2.0, 6.0),)
    assert edge_contains(bs.edges[0], 2) and edge_contains(bs.edges[1], 6)
    assert bs.locate(0) == {"kind": "below", "index": None}
    assert bs.locate(4) == {"kind": "band", "index": 0}
    assert bs.locate(2) == {"kind": "edge", "index": None}
    assert bs.locate(6) == {"kind": "edge", "index": None}
    assert bs.locate(8) == {"kind": "above", "index": None}
    assert bs.distance_to_spectrum(0) == 2.0
    assert bs.distance_to_spectrum(6.5) == 0.5
    assert bs.distance_to_spectrum(3) == 0.0


@pytest.mark.parametrize("word", [[4], [0, 1], [F(1, 2), 2, F(1, 2)]])
def test_points_in_outer_edge_intervals_touch_the_spectrum(word):
    # inside the 2^-60 interval of the lowest or highest edge, a point off
    # the root reads edge (or band), as it does at every interior edge, and
    # its distance is 0, never negative
    bs = band_set(word)
    for e in (bs.edges[bs.band_edge_pairs[0][0]],
              bs.edges[bs.band_edge_pairs[-1][1]]):
        assert e.lo < e.hi
        for t in (F(1, 4), F(3, 4)):
            z = e.lo + t * (e.hi - e.lo)
            assert bs.locate(z)["kind"] in ("edge", "band")
            assert bs.distance_to_spectrum(z) == 0.0


def test_closed_gap_is_merged():
    # doubling the free period produces a touching point, not a gap
    bs = band_set([0, 0])
    assert bs.bands == ((-2.0, 2.0),)
    assert bs.gaps == ()
    assert bs.locate(0) == {"kind": "band", "index": 0}


def test_three_band_example():
    bs = band_set([F(1, 2), 2, F(1, 2)])
    assert len(bs.bands) == 3 and len(bs.gaps) == 2
    assert bs.locate(0) == {"kind": "gap", "index": 0}
    assert bs.distance_to_spectrum(0) > 0
    for (_, hi), (lo, _) in zip(bs.bands, bs.bands[1:]):
        assert hi < lo


def test_nan_rejected():
    bs = band_set([0])
    with pytest.raises(ValueError):
        bs.locate(float("nan"))
    with pytest.raises(ValueError):
        bs.locate(float("inf"))


@given(int_words)
@settings(max_examples=60, deadline=None)
def test_band_structure_invariants(word):
    bs = band_set(word)
    assert 1 <= len(bs.bands) <= len(word)
    flat = [x for b in bs.bands for x in b]
    assert flat == sorted(flat)
    for lo, hi in bs.bands:
        assert lo < hi


@given(int_words, st.fractions(min_value=-8, max_value=8, max_denominator=7))
@settings(max_examples=150, deadline=None)
def test_locate_agrees_with_discriminant_sign(word, z):
    p = pot.periodic(word)
    disc = tr.discriminant(p)
    bs = sp.bands(disc)
    val = disc.value(z)
    kind = bs.locate(z)["kind"]
    if abs(val) < 2:
        assert kind == "band"
    elif abs(val) > 2:
        assert kind in ("gap", "below", "above")
    else:
        assert kind in ("edge", "band")


# periods 1-12: integer, p/q and half-integer words (rational roots land on
# midpoints of the isolation tree), and repeated blocks (closed gaps)
counter_words = st.one_of(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=12),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
             min_size=1, max_size=12),
    st.lists(st.integers(min_value=-8, max_value=8).map(lambda n: F(n, 2)),
             min_size=1, max_size=12),
    st.builds(lambda block, k: block * k,
              st.lists(st.integers(min_value=-3, max_value=3), min_size=1,
                       max_size=3),
              st.integers(min_value=2, max_value=4)))


def _counted_polynomials(word):
    """(sf, its oscillation counter, m12, its counter) of a word."""
    d = tr.discriminant(pot.periodic(word))
    f = pl.psub(pl.pmul(d.coeffs, d.coeffs), pl.constant(4))
    sf = pl.square_free(f)
    return (sf, sp._edge_counter(d, sp._closed_counter(d)), d.monodromy[1],
            sp._dirichlet_counter(word))


@given(counter_words)
@settings(max_examples=60, deadline=None)
def test_counters_isolate_like_sturm_chains(word):
    sf, edges, m12, roots = _counted_polynomials(word)
    assert pl.isolate_real_roots(sf, edges) == pl.isolate_real_roots(sf)
    assert pl.isolate_real_roots(m12, roots) == pl.isolate_real_roots(m12)


# rational roots of m12 (0 for (0, 1)), of m12 and m21 at once (0 for
# (0, 0), a closed gap, and for (1/2, 2, 1/2), no edge), of disc -+ 2, and
# closed gaps next to open ones
@pytest.mark.parametrize("word", [
    [0, 1], [0, 0], [1, 0, 1], [F(1, 2), 2, F(1, 2)], [2, -1, 0, 3, 1] * 2,
    [1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1], [0] * 6, [2, 0, 2, 0]])
def test_counters_count_like_sturm_chains_everywhere(word):
    sf, edges, m12, roots = _counted_polynomials(word)
    for f, counter in ((sf, edges), (m12, roots)):
        chain = pl.sturm_counter(f)
        for a in range(-48, 49):
            for d in (1, 2, 4, 3):
                n, s = counter(a, d)
                m, t = chain(a, d)
                assert n == m and (s == 0) == (t == 0), (f, a, d)


def band_words(min_size):
    """Integer and p/q words of period min_size to 10, and repeated blocks
    of period up to 10, whose gaps close."""
    return st.one_of(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=min_size,
                 max_size=10),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                 min_size=min_size, max_size=10),
        st.integers(min_value=1, max_value=5).flatmap(lambda b: st.builds(
            lambda block, k: block * k,
            st.lists(st.integers(min_value=-3, max_value=3), min_size=b,
                     max_size=b),
            st.integers(min_value=2, max_value=10 // b))))


@given(band_words(1))
@settings(max_examples=80, deadline=None)
def test_pairing_matches_sign_sampling(word):
    bs = sp.bands(pot.periodic(word))
    edges = [(e.lo, e.hi) for e in bs.edges]
    assert list(bs.band_edge_pairs) == \
        sign_sampled_band_pairs(bs.disc.coeffs, edges)


@given(band_words(2))
@settings(max_examples=40, deadline=None)
def test_one_m12_root_per_gap(word):
    # the q - 1 roots of m12 interlace the edges, one in each gap, open or
    # closed; a kept root is alone inside its open gap, and a rejected one
    # (|m22| >= 1: an edge, or an eigenvalue of the left compression) lies
    # in a gap too
    ds = sp.dirichlet_eigenvalues(pot.periodic(word))
    bs, pairs = ds.band_set, ds.band_set.band_edge_pairs
    m12 = bs.disc.monodromy[1]
    chain = fraction_sturm_chain(m12)

    def roots_in(lo, hi):  # [lo, hi]; m12 has simple roots
        return (fraction_variations_at(chain, lo)
                - fraction_variations_at(chain, hi) + (pl.peval(m12, lo) == 0))
    ends = {i for pair in pairs for i in pair}
    gaps = [(bs.edges[j].lo, bs.edges[k].hi)
            for (_, j), (k, _) in zip(pairs, pairs[1:])]
    gaps += [(e.lo, e.hi) for i, e in enumerate(bs.edges) if i not in ends]
    assert len(gaps) == len(word) - 1
    assert [roots_in(lo, hi) for lo, hi in gaps] == [1] * len(gaps)
    assert len(ds.eigenvalues) + len(ds.rejected) == len(word) - 1
    index = [e.gap_index for e in ds.eigenvalues]
    assert None not in index and len(set(index)) == len(index)
    for e in ds.eigenvalues:
        (_, j), (k, _) = pairs[e.gap_index], pairs[e.gap_index + 1]
        assert bs.edges[j].hi < e.lo <= e.hi < bs.edges[k].lo
    for r in ds.rejected:
        assert any(lo - 1e-9 <= r <= hi + 1e-9 for lo, hi in gaps)


def test_truncation_matches_closed_form():
    p = pot.periodic([4])
    for m in list(range(1, 40)) + [120, 200]:
        got = sp.truncation_spectrum(p, m)
        ref = np.array(constant4_eigenvalues(m))
        assert np.max(np.abs(got - ref)) < 1e-10


@given(st.lists(st.one_of(st.integers(min_value=-6, max_value=6),
                          st.fractions(min_value=-6, max_value=6,
                                       max_denominator=7)),
                min_size=1, max_size=8),
       st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_truncation_matches_dense_eigvalsh(word, size):
    p = pot.periodic(word)
    d = p.array(0, size - 1)
    dense = np.diag(d) + np.diag(np.ones(size - 1), 1) \
        + np.diag(np.ones(size - 1), -1)
    got = sp.truncation_spectrum(p, size)
    assert got.shape == (size,)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(d))) + 2)
    assert np.max(np.abs(got - np.linalg.eigvalsh(dense))) <= tol


@given(int_words, st.integers(min_value=2, max_value=30))
@settings(max_examples=40, deadline=None)
def test_truncation_interlacing(word, m):
    p = pot.periodic(word)
    a = sp.truncation_spectrum(p, m)
    b = sp.truncation_spectrum(p, m + 1)
    for k in range(m):
        assert b[k] <= a[k] + 1e-9
        assert a[k] <= b[k + 1] + 1e-9


def test_dirichlet_eigenvalue_exact_zero():
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    ds = sp.dirichlet_eigenvalues(p)
    assert len(ds.eigenvalues) == 1
    e = ds.eigenvalues[0]
    assert e.lo == e.hi == 0
    assert e.gap_index == 0
    assert ds.rejected == (2.5,)


@pytest.mark.parametrize("word", [(2, -1, 3), (0, 1, 3)])
def test_dirichlet_irrational_root_m22_side(word):
    # irrational roots of m12 take the Tarski-query path; the numeric
    # monodromy at the approximation confirms |m22| < 1 there
    p = pot.periodic(word)
    ds = sp.dirichlet_eigenvalues(p)
    irrational = [e for e in ds.eigenvalues if e.lo != e.hi]
    assert irrational
    for e in irrational:
        m22 = tr.monodromy(p, e.approx).d
        assert abs(m22) < 1


def test_dirichlet_none_for_constant():
    ds = sp.dirichlet_eigenvalues(pot.periodic([4]))
    assert ds.eigenvalues == () and ds.rejected == ()


def test_dirichlet_band_edge_root_rejected():
    # m12 vanishes at a band edge; |m22| = 1 there, so no eigenvalue
    ds = sp.dirichlet_eigenvalues(pot.periodic([0, 3]))
    assert ds.eigenvalues == ()
    assert ds.rejected == (0.0,)
    assert ds.band_set.bands == ((-1.0, 0.0), (3.0, 4.0))


exact_entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4))


@given(st.lists(exact_entries, min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_boundary_roots_of_m12_from_m22(word):
    # det M = 1 gives m11 m22 = 1 at each root of m12, where disc^2 - 4 is
    # then (m22 - 1/m22)^2: both gcds with m12 have the same roots
    _, m12, _, m22 = tr.symbolic_monodromy(pot.periodic(word))
    d = tr.discriminant(pot.periodic(word)).coeffs
    one, four = pl.constant(1), pl.constant(4)
    via_m22 = pl.pgcd(m12, pl.psub(pl.pmul(m22, m22), one))
    via_disc = pl.pgcd(m12, pl.psub(pl.pmul(d, d), four))
    assert pl.square_free(via_m22) == pl.square_free(via_disc)


@pytest.mark.parametrize("shift,raises", [(1e-5, True), (1e-8, False)])
def test_cross_check_catches_shifted_spectra(monkeypatch, shift, raises):
    # every truncation spectrum moved off by more than the 1e-6 match rule
    # must fail the cross-check; a shift well inside it must not
    true_spectrum = sp.truncation_spectrum
    monkeypatch.setattr(sp, "truncation_spectrum",
                        lambda p, size: true_spectrum(p, size) + shift)
    p = pot.periodic([F(1, 2), 2, F(1, 2)])
    if raises:
        with pytest.raises(sp.CrossValidationError):
            sp.dirichlet_eigenvalues(p)
    else:
        assert len(sp.dirichlet_eigenvalues(p).eigenvalues) == 1


# integer q = 12 (also at phase 5), p/q q = 8, a repeated block q = 10, and
# the README words: (1/2, 2, 1/2), (4), and the two sides of example-4-2
GUIDED_WORDS = [
    ((3, -1, 4, 1, -5, 2, 0, 6, -2, 5, -3, 1), 0),
    ((3, -1, 4, 1, -5, 2, 0, 6, -2, 5, -3, 1), 5),
    (("1/2", 2, "-3/4", 1, "5/3", 0, -2, "1/3"), 0),
    ((2, -1, 0, 3, 1) * 2, 0),
    (("1/2", 2, "1/2"), 0),
    ((4,), 0),
    ((1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1), 0),
    ((1, 0, 1, 0, 1), 0),
]


@pytest.mark.parametrize("word, phase", GUIDED_WORDS)
def test_isolation_builds_no_sturm_chain_of_its_polynomial(monkeypatch, word,
                                                           phase):
    # band edges and Dirichlet roots come from the oscillation counters:
    # no Sturm chain of square_free(disc^2 - 4) or of m12 is built
    isolate, chain = pl.isolate_real_roots, pl.sturm_chain
    isolating, built = [], []

    def recording_isolate(c, counter=None):
        isolating.append(c)
        try:
            return isolate(c, counter)
        finally:
            isolating.pop()

    def recording_chain(c, d=None):
        if isolating:
            built.append((isolating[-1], c))
        return chain(c, d)
    monkeypatch.setattr(pl, "isolate_real_roots", recording_isolate)
    monkeypatch.setattr(pl, "sturm_chain", recording_chain)
    sp.dirichlet_eigenvalues(pot.periodic([F(v) for v in word], phase))
    assert not [c for target, c in built
                if pl.primitive(c) == pl.primitive(target)]


def _refine_sign_counts(monkeypatch, use_guess):
    """Route pl.refine_root through a wrapper that counts the integer sign
    evaluations of each call; the guess is dropped unless use_guess."""
    refine, hsign = pl.refine_root, pl._hsign
    signs, per_call = [0], []

    def counting_hsign(*args):
        signs[0] += 1
        return hsign(*args)

    def counting_refine(c, lo, hi, width, guess=None):
        before = signs[0]
        out = refine(c, lo, hi, width, guess=guess if use_guess else None)
        per_call.append(signs[0] - before)
        return out
    monkeypatch.setattr(pl, "_hsign", counting_hsign)
    monkeypatch.setattr(pl, "refine_root", counting_refine)
    return per_call


def _bands_outputs(tmp_path, capsys, name, word, phase):
    cfg = tmp_path / (name + ".json")
    cfg.write_text(json.dumps({"potential": {
        "kind": "periodic", "word": list(word), "phase": phase}}))
    out = tmp_path / name
    assert cli.main(["bands", "--config", str(cfg), "--out", str(out)]) == 0
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    return files, capsys.readouterr().out


@pytest.mark.parametrize("word, phase", GUIDED_WORDS)
def test_guided_refinement_work_and_bytes(tmp_path, monkeypatch, capsys,
                                          word, phase):
    # every band edge and Dirichlet root takes the guided path: at most four
    # integer signs (two at lo, hi and two at the cell ends), and the
    # artifacts are byte for byte those of plain bisection
    guided = _refine_sign_counts(monkeypatch, True)
    out = _bands_outputs(tmp_path, capsys, "guided", word, phase)
    assert guided and max(guided) <= 4
    monkeypatch.undo()
    plain = _refine_sign_counts(monkeypatch, False)
    assert _bands_outputs(tmp_path, capsys, "plain", word, phase) == out
    assert len(plain) == len(guided) and sum(plain) > sum(guided)


def test_guesses_are_best_effort(monkeypatch):
    # a word beyond the float range gives no guess, and bands runs the
    # plain bisection for every edge without a traceback
    refine = pl.refine_root
    guesses = []

    def recording_refine(c, lo, hi, width, guess=None):
        guesses.append(guess)
        return refine(c, lo, hi, width, guess=guess)
    monkeypatch.setattr(pl, "refine_root", recording_refine)
    assert len(sp.bands(pot.periodic([10 ** 400, 0, 1])).edges) == 6
    assert guesses == [None] * 6
    monkeypatch.setattr(pl, "refine_root", refine)

    # a LAPACK failure or a non-finite eigenvalue gives no guess either
    p = pot.periodic([3, -1, 4, 1, -5])
    plain = sp.bands(p)

    def no_convergence(h):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    for fake in (no_convergence, lambda h: np.full(len(h), np.nan),
                 lambda h: np.full(len(h), np.inf)):
        monkeypatch.setattr(np.linalg, "eigvalsh", fake)
        assert sp._eigenvalue_guesses(plain.disc.word, (1, -1)) is None
        assert sp.bands(p) == plain


def test_edges_beyond_the_float_range_refuse_floats():
    # the exact band set exists, but float views of its edges name the
    # documented ValueError instead of an OverflowError
    bs = sp.bands(pot.periodic([10 ** 400, 0, 1]))
    for view in (lambda: [e.approx for e in bs.edges], lambda: bs.bands,
                 lambda: bs.gaps, bs.to_json):
        with pytest.raises(ValueError, match="float range"):
            view()


def test_dirichlet_refuses_words_beyond_the_float_range():
    # the approximations and the cross-check need floats: the refusal comes
    # before any exact work (bands alone on this word takes seconds)
    for word in ([10 ** 400, 0, 1], [F(-10 ** 400, 3), F(1, 2)]):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="float range"):
            sp.dirichlet_eigenvalues(pot.periodic(word))
        assert time.perf_counter() - t0 < 0.25


def test_dirichlet_needs_periodic():
    with pytest.raises(TypeError):
        sp.dirichlet_eigenvalues(pot.explicit([1], start=0))


@given(int_words, st.integers(min_value=1, max_value=40),
       st.fractions(min_value=-6, max_value=6, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_sigma_min_matches_full_spectrum(word, size, z):
    p = pot.periodic(word)
    got = sp.smallest_singular_value(p, size, float(z))
    spec = sp.truncation_spectrum(p, size)
    ref = float(np.min(np.abs(spec - float(z))))
    assert abs(got - ref) <= 1e-9 * max(1.0, ref)


def exact_pivots(diag, z):
    """LDL^T pivots of the unit off-diagonal section at z, over Q."""
    pivots = []
    for v in diag:
        q = F(v) - F(z) - (1 / pivots[-1] if pivots else 0)
        pivots.append(q)
        if q == 0:
            break  # z is an exact eigenvalue of this leading section
    return pivots


@st.composite
def diagonals_and_shifts(draw):
    entry = st.one_of(st.integers(min_value=-4, max_value=4),
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=6))
    diag = draw(st.lists(entry, min_size=1, max_size=12))
    # exact eigenvalues of leading sections among small rationals: the
    # float pivot at such a z can land on 0.0, the branch that replaces it
    grid = {F(n, 2) for n in range(-16, 17)} | {F(v) + s for v in diag
                                                for s in (-1, 0, 1)}
    exact = sorted(z for z in grid if exact_pivots(diag, z)[-1] == 0)
    z = draw(st.sampled_from(sorted(set(map(F, diag))) + exact))
    return diag, z


@given(diagonals_and_shifts())
@settings(max_examples=200, deadline=None)
def test_count_below_matches_reference(case):
    diag, z = case
    d = np.array([float(v) for v in diag])
    assert sp._count_below(d, float(z)) == \
        count_below(d, np.ones(len(d) - 1), float(z))


@pytest.mark.parametrize("diag,z", [
    ([0, 0, 0], 0), ([0, 0, 0], 1), ([0, 0, 0], -1), ([2, 2, 5], 3),
    ([F(1, 2), F(1, 2), 3], F(3, 2)), ([1, 1, 1, 1], 0), ([1] * 9, 2)])
def test_count_below_zero_pivot(diag, z):
    # an exact pivot vanishes and the float pivot hits 0.0 as well
    assert exact_pivots(diag, z)[-1] == 0
    d = np.array([float(v) for v in diag])
    zf = float(z)
    pivots = [d[0] - zf]
    for x in d[1:len(exact_pivots(diag, z))] - zf:
        pivots.append(x - 1.0 / pivots[-1])
    assert pivots[-1] == 0.0
    assert sp._count_below(d, zf) == count_below(d, np.ones(len(d) - 1), zf)


def test_count_below_on_long_sections():
    for p in (pot.sturmian(5), pot.random_values(3, [F(1, 3), -2, 2])):
        d = p.array(0, 4000)
        for z in (-2.5, 0.0, F(1, 3), 1.0, 3.5):
            assert sp._count_below(d, float(z)) == \
                count_below(d, np.ones(len(d) - 1), float(z))


def test_sigma_min_closed_form():
    p = pot.periodic([4])
    for m in (1, 2, 5, 20, 75):
        assert abs(sp.smallest_singular_value(p, m, 0.0)
                   - constant4_sigma_min(m)) < 1e-10


def test_truncation_input_checks():
    with pytest.raises(ValueError):
        sp.truncation_spectrum(pot.periodic([1]), 0)
    with pytest.raises(ValueError):
        sp.smallest_singular_value(pot.periodic([1]), 0, 0.0)


def test_band_set_json_shape():
    bs = band_set([4])
    doc = bs.to_json()
    assert doc["bands"] == [[2.0, 6.0]]
    lo = F(doc["edges"][0]["lo"])
    hi = F(doc["edges"][0]["hi"])
    assert lo <= 2 <= hi
