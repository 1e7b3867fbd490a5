"""Limit operators, essential spectra, Fredholm and finite-section criteria.

For an eventually periodic potential the limit operators at +infinity are
the rotations of the right period word and those at -infinity the rotations
of the left word. The essential spectrum of the full-line operator is the
union of the two band sets; Fredholmness of H - z is the exact condition
|disc_side(z)| > 2 on both sides.

The finite section method applies iff a finite list of one- and two-sided
operators built from the limit words are all invertible:

  full-line sections [l_n, r_n]:
    (a) H - z invertible,
    (b) every right limit rotation, compressed to [0, inf) with a Dirichlet
        cut, invertible,
    (c) every left limit rotation, compressed to (-inf, -1], invertible;
  half-line sections [0, r_n]:
    (d) the half-line operator itself invertible,
    (e) every right limit rotation, compressed to (-inf, -1], invertible.

Every condition is decided exactly over Q from the Floquet directions of
the rational side monodromies in a gap, vectors over Q(sqrt D) with
D = trace^2 - 4. (a) and (d) fail iff the left decaying direction, or the
Dirichlet vector (0, 1), carried across the core spans the right
contracting one; rotation r fails in (b), (c), (e) iff the decaying
solution of the word vanishes at site -r - 1, so one walk across the
period decides every rotation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .potential import EventuallyPeriodicPotential, PeriodicPotential, periodic
from .scalars import INTEGER, RATIONAL, RegimeError, to_exact
from .spectral import bands
from .transfer import monodromy, monodromy_dirichlet_test, transfer_product


def _side_words(p):
    """(left_word, right_word, left_junction, right_junction).

    Junctions: the potential agrees with the pure left word on
    (-inf, left_junction) and with the pure right word on [right_junction, inf).
    """
    if isinstance(p, PeriodicPotential):
        w = tuple(p.value(n) for n in range(p.period))
        return w, w, 0, 0
    if isinstance(p, EventuallyPeriodicPotential):
        return p.left_word, p.right_word, p.core_start, p.right_start
    raise TypeError("limit operators need a periodic or eventually periodic "
                    "potential, got %s" % type(p).__name__)


@dataclass(frozen=True)
class LimitOperator:
    """One periodic limit operator, with the shift residues producing it."""

    side: str  # "left" | "right"
    residues: tuple
    potential: PeriodicPotential


def limit_operators(p, side=None):
    """Distinct periodic limit operators of p, per side, rotations deduped."""
    if side not in (None, "left", "right"):
        raise ValueError("side must be None, left or right")
    lw, rw, _, _ = _side_words(p)
    out = []
    for s, w in (("left", lw), ("right", rw)):
        if side is not None and s != side:
            continue
        seen = {}
        q = len(w)
        for r in range(q):
            rot = periodic(w, phase=r)
            key = tuple(rot.value(n) for n in range(q))
            if key in seen:
                seen[key][0].append(r)
            else:
                seen[key] = ([r], rot)
        for residues, rot in seen.values():
            out.append(LimitOperator(side=s, residues=tuple(residues),
                                     potential=rot))
    return tuple(out)


def _merge_intervals(intervals):
    ivs = sorted(intervals)
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


@dataclass(frozen=True)
class EssentialSpectrum:
    intervals: tuple  # merged float intervals
    side_bands: dict  # "left"/"right" -> BandSet

    def contains(self, z):
        """Exact membership via the side discriminants."""
        zf = to_exact(z)
        return any(abs(bs.disc.value(zf)) <= 2
                   for bs in self.side_bands.values())


def essential_spectrum(p):
    """Union of the limit-operator spectra; exact edges per side."""
    lw, rw, _, _ = _side_words(p)
    left_bs = bands(periodic(lw))
    right_bs = left_bs if tuple(rw) == tuple(lw) else bands(periodic(rw))
    ivs = _merge_intervals(list(left_bs.bands) + list(right_bs.bands))
    return EssentialSpectrum(intervals=ivs,
                             side_bands={"left": left_bs, "right": right_bs})


@dataclass(frozen=True)
class FredholmResult:
    fredholm: bool
    operator: str  # "full_line" | "half_line"
    z: object
    side_position: dict  # side -> "gap" | "band" | "edge"
    witness_side: object  # side whose bands contain z, if any
    at_band_edge: bool


def is_fredholm(p, z, operator="full_line"):
    """Exact Fredholm test for H - z (or its Dirichlet half-line
    compression, which only sees the right limit operators). The
    discriminant of each side word at z is the trace of its one-period
    transfer there."""
    if operator not in ("full_line", "half_line"):
        raise ValueError("operator must be full_line or half_line")
    zf = to_exact(z)
    lw, rw, _, _ = _side_words(p)
    sides = {"right": rw} if operator == "half_line" else {"left": lw, "right": rw}
    values = {}
    for w in set(sides.values()):
        side = periodic(w)
        if side.regime not in (INTEGER, RATIONAL):
            raise RegimeError("the Fredholm test is exact-only")
        values[w] = monodromy(side, zf).trace()
    pos = {}
    witness = None
    edge = False
    for s, w in sides.items():
        val = values[w]
        if abs(val) < 2:
            pos[s] = "band"
            witness = witness or s
        elif abs(val) == 2:
            pos[s] = "edge"
            witness = witness or s
            edge = True
        else:
            pos[s] = "gap"
    ok = all(v == "gap" for v in pos.values())
    return FredholmResult(fredholm=ok, operator=operator, z=z,
                          side_position=pos, witness_side=witness,
                          at_band_edge=edge)


@dataclass(frozen=True)
class InvertibilityResult:
    """Exact invertibility verdict for one (half-line) operator at z."""

    invertible: bool
    status: str  # invertible | in_band | band_edge | eigenvalue
    detail: dict


def halfline_invertible(p, z):
    """Exact invertibility of the Dirichlet half-line compression of p.

    p must be periodic or eventually periodic; only the part of p on
    [0, inf) matters. In a gap of the right word, z is an eigenvalue iff
    the Dirichlet vector (0, 1), carried to j = max(right_start, 0), spans
    the contracting direction of the period transfer there (for j = 0:
    m12(z) = 0 and |m22(z)| < 1); detail holds its trace and then the
    multiplier, a rational.
    """
    _, rw, _, rj = _side_words(p)
    if p.regime not in (INTEGER, RATIONAL):
        raise RegimeError("half-line invertibility is decided over Q only")
    zf = to_exact(z)
    j = max(rj, 0)
    m = transfer_product(p, zf, j, j + len(rw) - 1)
    detail = {"disc": m.trace()}
    if abs(detail["disc"]) < 2:
        return InvertibilityResult(False, "in_band", detail)
    if abs(detail["disc"]) == 2:
        return InvertibilityResult(False, "band_edge", detail)
    core = transfer_product(p, zf, 0, j - 1)  # identity if j = 0
    if not _decays(((0, 0), (1, 0)), 0, core, m):
        return InvertibilityResult(True, "invertible", detail)
    u = core.apply((0, 1))
    k = 0 if u[0] else 1
    detail["multiplier"] = Fraction(m.apply(u)[k], u[k])
    return InvertibilityResult(False, "eigenvalue", detail)


@dataclass(frozen=True)
class ConditionResult:
    """One applicability condition, decided exactly: holds is a bool."""

    holds: bool
    summary: str
    items: tuple  # per-rotation (residue, monodromy_dirichlet_test
    # certificate) for an integer word at integral z in a gap, or the
    # FredholmResult / InvertibilityResult the verdict rests on


@dataclass(frozen=True)
class ApplicabilityReport:
    operator: str
    z: object
    conditions: dict  # key -> ConditionResult
    applicable: bool


def _rotation_condition(word, z, compress, integer_certificates):
    """Test all rotations of `word` under the one-sided compression.

    compress = "plus" tests the word w as written on [0, inf); "minus" the
    compression to (-inf, -1], which after n -> -1 - n is the plus case of
    the reversed word. All rotations share one trace, so off a gap all fail
    alike. In a gap rotation r (value(n) = w[n - r]) has z as an eigenvalue
    iff the solution of w decaying at +inf vanishes at site -r - 1 mod q,
    read off one walk of its direction. integer_certificates (integer word,
    integral z) adds a monodromy_dirichlet_test per rotation in a gap.
    """
    w = tuple(reversed(word)) if compress == "minus" else tuple(word)
    q = len(w)
    m = monodromy(periodic(w), z)
    items = ()
    if abs(m.trace()) <= 2:
        bad = [(r, "in_band" if abs(m.trace()) < 2 else "band_edge")
               for r in range(q)]
    else:
        (x, y), d = _floquet_direction(m, contracting=True)
        bad = []
        for k, v in enumerate(w):  # (x, y) holds (x_{k-1}, x_k)
            if _sign(x, d) == 0:
                bad.append((-k % q, "eigenvalue"))
            x, y = y, ((z - v) * y[0] - x[0], (z - v) * y[1] - x[1])
        bad.sort()
        if integer_certificates:
            items = tuple((r, monodromy_dirichlet_test(periodic(w, r), int(z)))
                          for r in range(q))
    holds = not bad
    summary = ("all %d rotations invertible" % q) if holds else \
        ("rotation failures: %s" % ", ".join("r=%d %s" % b for b in bad))
    return ConditionResult(holds=holds, summary=summary, items=items)


def _sign(x, d):
    """Exact sign of x[0] + x[1] sqrt(d), for rationals x and d >= 0."""
    s0 = (x[0] > 0) - (x[0] < 0)
    s1 = (x[1] > 0) - (x[1] < 0)
    if s0 == s1 or not s1:
        return s0
    if not s0:
        return s1
    r = x[0] * x[0] - x[1] * x[1] * d
    return s0 * ((r > 0) - (r < 0))


def _floquet_direction(m, contracting):
    """Eigenvector of the det-1 transfer m in a gap (|trace| > 2), the
    contracting or the expanding one, as two pairs over Q(sqrt D),
    D = trace^2 - 4. With 2 lambda = trace + s sqrt D it is the column
    (2 m12, 2 lambda - 2 m11), or (2 lambda - 2 m22, 2 m21) where that one
    vanishes (m12 = 0)."""
    d = m.trace() * m.trace() - 4
    s = 1 if (m.trace() > 0) != contracting else -1
    v = ((2 * m.b, 0), (m.d - m.a, s))
    if not m.b and _sign(v[1], d) == 0:
        v = ((m.a - m.d, s), (2 * m.c, 0))
    return v, d


def _decays(start, d_u, core, right):
    """Whether `start`, a vector over Q(sqrt d_u) carried across the
    transfer `core`, spans the contracting direction (x, y) of the gap
    transfer `right`, a vector over Q(sqrt d_r). Split by the rational and
    the sqrt(d_u) part of start, det [core start, (x, y)] is
    P + Q sqrt(d_u) with P, Q in Q(sqrt d_r): 0 iff P^2 - d_u Q^2 = 0 and
    sign P = -sign Q.
    """
    (x, y), d_r = _floquet_direction(right, contracting=True)
    u, w = start
    (p0, p1), (q0, q1) = (
        (top * y[0] - bottom * x[0], top * y[1] - bottom * x[1])
        for top, bottom in (core.apply((u[k], w[k])) for k in range(2)))
    norm = (p0 * p0 + p1 * p1 * d_r - d_u * (q0 * q0 + q1 * q1 * d_r),
            2 * (p0 * p1 - d_u * q0 * q1))
    return _sign(norm, d_r) == 0 and \
        _sign((p0, p1), d_r) == -_sign((q0, q1), d_r)


def _full_line_invertible_condition(p, z):
    fred = is_fredholm(p, z, "full_line")
    if not fred.fredholm:
        return ConditionResult(
            holds=False,
            summary="z in the essential spectrum (side %s, %s)"
                    % (fred.witness_side, fred.side_position[fred.witness_side]),
            items=(fred,))
    # in a gap of both sides, H - z is invertible iff no solution decays at
    # both ends
    lw, rw, lj, rj = _side_words(p)
    left = transfer_product(p, z, lj - len(lw), lj - 1)
    kernel = _decays(*_floquet_direction(left, contracting=False),
                     transfer_product(p, z, lj, rj - 1),
                     transfer_product(p, z, rj, rj + len(rw) - 1))
    return ConditionResult(
        holds=not kernel, items=(fred,),
        summary="kernel: the solutions decaying at both ends match, exact"
        if kernel else "Fredholm and no kernel: the decaying solutions are "
                       "independent, exact")


def fsm_applicability(p, z=0, operator="full_line"):
    """Decide the applicability conditions of the finite section method.

    Returns a report with one ConditionResult per condition ("a","b","c" for
    full-line sections, "d","e" for half-line sections). Each is decided
    exactly over Q, so holds is True or False, and applicable is True iff
    every condition holds.
    """
    if operator not in ("full_line", "half_line"):
        raise ValueError("operator must be full_line or half_line")
    lw, rw, _, _ = _side_words(p)
    zf = to_exact(z)
    if p.regime not in (INTEGER, RATIONAL):
        raise RegimeError("applicability analysis is exact-only")
    integer_certs = p.regime == INTEGER and zf.denominator == 1
    conds = {}
    if operator == "full_line":
        conds["a"] = _full_line_invertible_condition(p, zf)
        conds["b"] = _rotation_condition(rw, zf, "plus", integer_certs)
        conds["c"] = _rotation_condition(lw, zf, "minus", integer_certs)
    else:
        res = halfline_invertible(p, zf)
        conds["d"] = ConditionResult(
            holds=res.invertible, items=(res,),
            summary="half-line operator invertible, exact" if res.invertible
            else "half-line operator not invertible: %s" % res.status)
        conds["e"] = _rotation_condition(rw, zf, "minus", integer_certs)
    return ApplicabilityReport(operator=operator, z=z, conditions=conds,
                               applicable=all(c.holds for c in conds.values()))
