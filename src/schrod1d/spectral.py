"""Band structure, Dirichlet point spectrum and truncation spectra.

For a periodic potential the spectrum of the full-line operator is the set
{z : |disc(z)| <= 2} with disc the Floquet discriminant; it is a union of at
most `period` closed bands. The half-line compression with a Dirichlet
condition adds at most one eigenvalue per spectral gap, located exactly by
m12(z) = 0 together with |m22(z)| < 1 for the one-period transfer aligned at
the cut. The exact side isolates band edges and roots of m12 by counting
eigenvalues: one integer run of the transfer recurrence over the period at
a rational point gives the node count of the section [0, q - 2] and the
signs of m12 and disc -+ 2, and inertia additivity and interlacing turn
them into the number of Floquet eigenvalues above the point (see
`_edge_counter`). Sturm chains (integer pseudo-remainder sequences) count
the closed-gap points and give the sign of m22 at a root of m12, a Tarski
query (Sylvester's theorem). Band theory pairs the edges: the closed-gap
points are the multiple roots of disc^2 - 4, and the other edges, in
order, start and end the bands (see `bands`). The floating-point side
uses LAPACK on symmetric tridiagonal sections: whole truncation spectra by
the root-free QL/QR algorithm (sterf), and the two eigenvalues next to a
point by bisection with index selection (stebz).

Floats also propose where exact roots lie. Band edges are the eigenvalues
of the q x q periodic and antiperiodic Floquet matrices (the roots of
disc -+ 2), and the roots of m12 those of the section [0, q - 2]. LAPACK
gives them as guesses to `polynomials.refine_root`, which takes the final
2^-60 cell only when the integer signs at its two ends confirm it, and
otherwise bisects as before; the printed intervals do not depend on the
guesses.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from . import polynomials as pl
from .potential import PeriodicPotential
from .scalars import to_exact
from .transfer import Discriminant, discriminant

EDGE_WIDTH = Fraction(1, 2 ** 60)


class SpectralStructureError(ValueError):
    """Raised when a discriminant violates the self-adjoint band structure."""


@dataclass(frozen=True)
class EdgeRoot:
    """Isolating interval of one distinct root of disc^2 - 4."""

    lo: Fraction
    hi: Fraction

    @property
    def approx(self):
        try:
            return float((self.lo + self.hi) / 2)
        except OverflowError:
            raise ValueError("band edge beyond the float range") from None


@dataclass(frozen=True)
class BandSet:
    """Band/gap decomposition of a periodic spectrum, with exact edges."""

    period: int
    disc: Discriminant
    edges: tuple  # EdgeRoot, ascending
    band_edge_pairs: tuple  # (lo_edge_index, hi_edge_index) per band

    @property
    def bands(self):
        return tuple((self.edges[i].approx, self.edges[j].approx)
                     for i, j in self.band_edge_pairs)

    @property
    def gaps(self):
        out = []
        for (_, j), (k, _) in zip(self.band_edge_pairs, self.band_edge_pairs[1:]):
            out.append((self.edges[j].approx, self.edges[k].approx))
        return tuple(out)

    def locate(self, z):
        """Exact position of z relative to the spectrum.

        Returns a dict with kind in {"band", "edge", "gap", "below", "above"}
        and the (band or gap) index where applicable. Floats are converted to
        exact rationals first, so the answer never depends on edge rounding.
        """
        zf = to_exact(z)
        val = self.disc.value(zf)
        if abs(val) < 2:
            for b, (i, j) in enumerate(self.band_edge_pairs):
                if self.edges[i].lo <= zf <= self.edges[j].hi:
                    return {"kind": "band", "index": b}
            raise SpectralStructureError(
                "|disc| < 2 point outside every band interval")
        if abs(val) == 2:
            # z is an exact root of disc^2 - 4: either a band boundary or a
            # closed-gap touching point interior to a merged band
            boundary = {i for pair in self.band_edge_pairs for i in pair}
            for k, e in enumerate(self.edges):
                if e.lo <= zf <= e.hi:
                    if k in boundary:
                        return {"kind": "edge", "index": None}
                    for b, (i, j) in enumerate(self.band_edge_pairs):
                        if self.edges[i].lo <= zf <= self.edges[j].hi:
                            return {"kind": "band", "index": b}
            raise SpectralStructureError(
                "|disc| = 2 point not matched to any edge root")
        if zf < self.edges[self.band_edge_pairs[0][0]].lo:
            return {"kind": "below", "index": None}
        if zf > self.edges[self.band_edge_pairs[-1][1]].hi:
            return {"kind": "above", "index": None}
        for g, ((_, j), (k, _)) in enumerate(
                zip(self.band_edge_pairs, self.band_edge_pairs[1:])):
            if self.edges[j].hi < zf < self.edges[k].lo:
                return {"kind": "gap", "index": g}
        # z sits inside an edge isolating interval but is not the root;
        # the interval width 2^-60 bounds the ambiguity, call it the edge side
        return {"kind": "edge", "index": None}

    def distance_to_spectrum(self, z):
        """Distance from z to the band union (0 inside); float, edge error
        bounded by the 2^-60 isolating width."""
        loc = self.locate(z)
        if loc["kind"] in ("band", "edge"):
            return 0.0
        zf = to_exact(z)
        if loc["kind"] == "below":
            return float(self.edges[self.band_edge_pairs[0][0]].lo - zf)
        if loc["kind"] == "above":
            return float(zf - self.edges[self.band_edge_pairs[-1][1]].hi)
        g = loc["index"]
        left = self.edges[self.band_edge_pairs[g][1]]
        right = self.edges[self.band_edge_pairs[g + 1][0]]
        return float(min(zf - left.hi, right.lo - zf))

    def to_json(self):
        return {
            "period": self.period,
            "bands": [[lo, hi] for lo, hi in self.bands],
            "gaps": [[lo, hi] for lo, hi in self.gaps],
            "edges": [{"lo": str(e.lo), "hi": str(e.hi)} for e in self.edges],
        }


def _eigenvalue_guesses(word, corners):
    """Ascending eigenvalues of the Jacobi matrices of word (unit
    off-diagonal) with each corner value added at both corners, as floats;
    None if floats cannot carry them (overflow, LAPACK failure, inf, nan).

    Corners +1 and -1 give the periodic and antiperiodic Floquet matrices
    (for q = 1 both corners land on the one diagonal entry, for q = 2 on the
    off-diagonal); corner 0 gives the open section."""
    q = len(word)
    try:
        diag = np.diag([float(v) for v in word])
        vals = []
        for s in corners:
            h = diag + np.eye(q, k=1) + np.eye(q, k=-1)
            h[0, -1] += s
            h[-1, 0] += s
            vals.append(np.linalg.eigvalsh(h))
        vals = np.sort(np.concatenate(vals))
    except (OverflowError, np.linalg.LinAlgError):
        return None
    return vals.tolist() if np.isfinite(vals).all() else None


def _guess(values, lo, hi):
    """The first value of the ascending list inside [lo, hi], or None; the
    comparisons are exact, so huge interval ends do not overflow."""
    if values is None:
        return None
    j = bisect_left(values, lo)
    return values[j] if j < len(values) and values[j] <= hi else None


def _integer_word(word):
    """(numerators, common denominator) of a rational word."""
    word = [Fraction(v) for v in word]
    den = math.lcm(*(v.denominator for v in word))
    return [v.numerator * (den // v.denominator) for v in word], den


def _orbit(num, den, a, d, start):
    """u_{-1}, u_0, ..., u_q of u_{k+1} = (x - v_k) u_k - u_{k-1} over one
    period at x = a/d (d > 0), from (u_{-1}, u_0) = start, for the word
    v_k = num[k] / den, as integers with the signs of the u_k: with
    D = d * den, the start (0, 1) gives D^k u_k and (1, 0) gives
    D^(k+1) u_k.

    From (0, 1), u_k is det(x - section [0, k - 1]) and (u_{q-1}, u_q) =
    (m12, m22); from (1, 0), -u_k is det(x - section [1, k - 1]) and
    (u_{q-1}, u_q) = (m11, m21).
    """
    s = d * den
    s2, ad = s * s, a * den
    prev, cur = start
    out = [prev, cur]
    for n in num:
        prev, cur = cur, (ad - n * d) * cur - s2 * prev
        out.append(cur)
    return out


def _nodes(values):
    """Sign changes along values, zeros dropped as in a Sturm chain.

    Along leading principal minors of x - J, for a Jacobi matrix J with
    nonzero off-diagonals, this counts the eigenvalues of J above x
    (Wilkinson 1965, ch. 5). A zero minor sits between two of opposite
    sign, and at an eigenvalue x of J the last minor is 0 and the rest
    count J's eigenvalues above x by strict interlacing, so the count is
    exact at every x.
    """
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _dirichlet_counter(word):
    """Root counter of m12 for pl.isolate_real_roots, from one orbit.

    m12 = det(x - T) for T the section [0, q - 2]; its roots are T's simple
    eigenvalues, and those above x are the nodes of u_0, ..., u_{q-1}.
    """
    num, den = _integer_word(word)
    q = len(num)

    def counter(a, d):
        u = _orbit(num, den, a, d, (0, 1))
        return _nodes(u[1:q + 1]), (u[q] > 0) - (u[q] < 0)
    return counter


def _closed_counter(d):
    """Sturm counter of gcd(disc - 2, disc') gcd(disc + 2, disc'), whose
    roots are the closed-gap points; None when no gap is closed, as for
    almost every word."""
    dp = pl.pderiv(d.coeffs)
    closed = pl.pmul(pl.pgcd(pl.psub(d.coeffs, pl.constant(2)), dp),
                     pl.pgcd(pl.padd(d.coeffs, pl.constant(2)), dp))
    return pl.sturm_counter(closed) if pl.degree(closed) >= 1 else None


def _edge_counter(d, closed):
    """Root counter of square_free(disc^2 - 4) for pl.isolate_real_roots,
    from orbits of the discriminant's word and the closed-gap counter
    `_closed_counter(d)`.

    The roots of disc -+ 2 are the eigenvalues of the periodic and
    antiperiodic Floquet matrices J_+ and J_-: det(x - J_theta) =
    disc(x) - 2 cos theta (Teschl 2000, ch. 7). Each J is the section T =
    [0, q - 2] bordered by site q - 1. Where m12(x) = det(x - T) is not 0,
    inertia additivity (Haynsworth 1968) gives J as many eigenvalues above x
    as T, plus one when the Schur complement det(J - x) / det(T - x), of
    the sign of -(disc(x) -+ 2) m12(x), is positive. Where x is an
    eigenvalue of T but not of J, Cauchy interlacing gives J one more
    eigenvalue above x than T. Where x is an eigenvalue of both, the section
    [1, q - 1] borders J the same way if m21(x) != 0; otherwise the
    monodromy is +-I, x is a double eigenvalue of J and J has as many
    eigenvalues above x as T. A closed-gap point is a double eigenvalue, so
    the distinct edges above x are the eigenvalues of both J above x less
    the closed-gap points above x. Every answer is exact; no chain of
    disc^2 - 4 is built.
    """
    num, den = _integer_word(d.word)
    q, head = len(num), num[:-1]

    def counter(a, b):
        u = _orbit(num, den, a, b, (0, 1))
        w = _orbit(head, den, a, b, (1, 0))  # up to m11
        # disc(x) and 2, both times (b * den)^q
        disc, two = w[q] + u[q + 1], 2 * (b * den) ** q
        signs = ((disc > two) - (disc < two), (disc > -two) - (disc < -two))
        nodes = _nodes(u[1:q + 1])
        cut = (u[q] > 0) - (u[q] < 0)
        n = 0
        for e in signs:
            if cut:
                n += nodes + (e * cut < 0)
            elif e:
                n += nodes + 1
            else:
                w = _orbit(num, den, a, b, (1, 0))
                n += _nodes(w[2:q + 2]) if w[q + 1] else nodes
        if closed is not None:
            n -= closed(a, b)[0]
        return n, signs[0] * signs[1]
    return counter


def _holds_root(counter, e):
    """Whether the edge interval e holds a root of the counted polynomial,
    whose roots are among those of disc^2 - 4 (so an end of an open edge
    interval is none of them)."""
    n, s = counter(e.lo.numerator, e.lo.denominator)
    return s == 0 or n != counter(e.hi.numerator, e.hi.denominator)[0]


def bands(d):
    """Assemble the band structure from a discriminant, exactly.

    Roots of disc^2 - 4 are isolated by counting Floquet eigenvalues with
    the oscillation counter `_edge_counter`, and refined to width 2^-60,
    guided by the Floquet eigenvalues as float guesses. Raises
    SpectralStructureError if disc^2 - 4 has non-real roots, which cannot
    happen for a real periodic potential.

    Band and gap are read off root multiplicity. Once all 2q roots of
    disc^2 - 4 are real, disc - 2 and disc + 2 each have q real roots. By
    Rolle, each gap between consecutive distinct roots of either one holds
    exactly one critical point of disc, and that point is simple. So a
    multiple root of disc - 2 lies strictly between two roots of disc + 2:
    it is a local maximum at 2, a double root with |disc| < 2 on both
    sides, that is, a closed gap; the same holds with the signs swapped.
    An edge is closed exactly when it holds a root of gcd(disc - 2, disc')
    gcd(disc + 2, disc'), and the open edges, in order, are the start and
    end of each band (Teschl 2000, ch. 7: a band never has zero length).
    """
    if not isinstance(d, Discriminant):
        d = discriminant(d)
    f = pl.psub(pl.pmul(d.coeffs, d.coeffs), pl.constant(4))
    total = pl.real_root_count_with_multiplicity(f)
    if total != pl.degree(f):
        raise SpectralStructureError(
            "disc^2 - 4 must have all roots real (got %d of %d)"
            % (total, pl.degree(f)))
    sf = pl.square_free(f)
    closed = _closed_counter(d)
    floquet = _eigenvalue_guesses(d.word, (1, -1))
    edges = tuple(
        EdgeRoot(*pl.refine_root(sf, lo, hi, EDGE_WIDTH,
                                 guess=_guess(floquet, lo, hi)))
        for lo, hi in pl.isolate_real_roots(sf, _edge_counter(d, closed)))
    ends = [i for i, e in enumerate(edges)
            if closed is None or not _holds_root(closed, e)]
    return BandSet(period=d.period, disc=d, edges=edges,
                   band_edge_pairs=tuple(zip(ends[::2], ends[1::2])))


@dataclass(frozen=True)
class DirichletEigenvalue:
    """One eigenvalue of the half-line compression, exactly isolated."""

    lo: Fraction
    hi: Fraction
    approx: float
    gap_index: object  # the gap holding it; None within 2^-60 of an edge


@dataclass(frozen=True)
class DirichletSpectrum:
    eigenvalues: tuple
    rejected: tuple  # roots of m12 with |m22| >= 1 (float approximations)
    band_set: object


class CrossValidationError(AssertionError):
    """Exact Dirichlet eigenvalue not seen by large truncations."""


def dirichlet_eigenvalues(p):
    """Point spectrum of the Dirichlet half-line compression, exact.

    Roots of m12 are isolated over Q, counted as the nodes of one orbit of
    the transfer recurrence; each is kept iff |m22| < 1 there,
    decided by a Tarski query on m22^2 - 1. Where m12 = 0, det M = 1 gives
    m11 m22 = 1 and disc^2 - 4 = (m22 - 1/m22)^2, so a root of gcd(m12,
    m22^2 - 1) is a band edge and is rejected. The q - 1 roots of m12
    interlace the band edges, one in each gap, open or closed (Teschl 2000,
    ch. 7), so a kept root outside a gap, or a second one in a gap, raises
    SpectralStructureError. The roots of m12 are refined
    from the eigenvalues of the section [0, period - 2] as guesses. Every
    eigenvalue is cross-validated against LAPACK truncation spectra at sizes
    >= 60 * period, so a word entry beyond the float range raises
    ValueError before any exact work (bands stays exact for any word).
    """
    if not isinstance(p, PeriodicPotential):
        raise TypeError("dirichlet_eigenvalues needs a periodic potential")
    try:
        p.array(0, p.period - 1)
    except OverflowError:
        raise ValueError("dirichlet_eigenvalues needs word entries in the "
                         "float range") from None
    bs = bands(p)
    _, m12, _, m22 = bs.disc.monodromy
    eigs = []
    rejected = []
    if pl.degree(m12) >= 1:
        m22sq1 = pl.psub(pl.pmul(m22, m22), pl.constant(1))
        boundary = pl.pgcd(m12, m22sq1)
        section = _eigenvalue_guesses(bs.disc.word[:-1], (0,))
        chain = None  # Tarski chain of (m12, m22^2 - 1)
        for lo, hi in pl.isolate_real_roots(
                m12, _dirichlet_counter(bs.disc.word)):
            if lo == hi:
                keep = abs(pl.peval(m22, lo)) < 1
            elif pl.degree(boundary) >= 1 and pl.count_roots_in(boundary, lo, hi):
                keep = False  # |m22| = 1 exactly: band edge, no eigenvalue
            else:
                if chain is None:
                    chain = pl.tarski_chain(m12, m22sq1)
                keep = pl.sign_at_root(chain, lo, hi) < 0
            lo, hi = pl.refine_root(m12, lo, hi, EDGE_WIDTH,
                                    guess=_guess(section, lo, hi))
            mid = (lo + hi) / 2
            approx = float(mid)
            if not keep:
                rejected.append(approx)
                continue
            loc = bs.locate(mid)
            if loc["kind"] not in ("gap", "edge") or (
                    loc["index"] is not None
                    and loc["index"] in (e.gap_index for e in eigs)):
                raise SpectralStructureError(
                    "Dirichlet eigenvalue %r is not alone in a gap (%s)"
                    % (approx, loc["kind"]))
            eigs.append(DirichletEigenvalue(
                lo=lo, hi=hi, approx=approx, gap_index=loc["index"]))

    if eigs:
        for size in (60 * p.period, 240 * p.period, 960 * p.period):
            spec = truncation_spectrum(p, size)
            bad = [e for e in eigs
                   if np.min(np.abs(spec - e.approx)) > 1e-6]
            if not bad:
                break
        else:
            raise CrossValidationError(
                "eigenvalues %r unmatched by truncation spectra"
                % [e.approx for e in bad])
    return DirichletSpectrum(eigenvalues=tuple(eigs), rejected=tuple(rejected),
                             band_set=bs)


def _tridiag_data(p, l, r):
    if r < l:
        raise ValueError("empty section")
    return p.array(l, r), np.ones(r - l)


def truncation_spectrum(p, size):
    """Eigenvalues of the size x size section of H on [0, size), ascending.

    LAPACK's root-free QL/QR iteration (sterf, Pal-Walker-Kahan) finds the
    whole spectrum in O(size^2) flops with absolute error about
    eps * ||section||, the accuracy of bisection at a fraction of its cost.
    """
    if size < 1:
        raise ValueError("section size must be positive")
    d, e = _tridiag_data(p, 0, size - 1)
    if size == 1:
        return d.copy()
    return eigvalsh_tridiagonal(d, e, lapack_driver='sterf')


def _count_below(d, z):
    """Number of eigenvalues below z of the symmetric tridiagonal section
    with diagonal d and unit off-diagonals, by the standard LDL^T inertia
    recursion on Python floats (the unit off-diagonal makes e*e/q = 1/q)."""
    cnt = 0
    q = math.inf  # x - 1.0 / inf is x: the first pivot has no off-diagonal
    for x in (d - z).tolist():
        q = x - 1.0 / q
        if q == 0.0:
            q = -1e-300
        if q < 0:
            cnt += 1
    return cnt


def smallest_singular_value(p, size, z, start=0):
    """sigma_min of the size x size section of H - z.

    The section is symmetric, so the singular values are |lambda - z| over
    section eigenvalues lambda; only the two eigenvalues adjacent to z are
    computed (bisection with index selection after an inertia count).
    Raises OverflowError when LAPACK's bisection cannot bound the section
    (entries near the float limit, such as 1e308, leave it no eigenvalue).
    """
    if size < 1:
        raise ValueError("section size must be positive")
    d, e = _tridiag_data(p, start, start + size - 1)
    zf = float(z)
    if size == 1:
        return abs(d[0] - zf)
    k = _count_below(d, zf)
    idx = sorted({max(0, k - 1), min(size - 1, k)})
    ev = eigvalsh_tridiagonal(d, e, select='i',
                              select_range=(idx[0], idx[-1]),
                              lapack_driver='stebz')
    if not ev.size:
        raise OverflowError("section entries too large for the eigenvalue "
                            "bisection")
    return float(np.min(np.abs(ev - zf)))
