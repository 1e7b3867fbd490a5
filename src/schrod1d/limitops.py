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

Every condition is decided exactly over Q. For (a) the solutions decaying
at either end start along eigenvectors of the rational side monodromies,
whose entries lie in Q(sqrt D) with D = trace^2 - 4; H - z has a kernel
iff the rational core transfer carries the left one onto the right one,
a sign question in Q(sqrt D_L, sqrt D_R).
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


def _halfline_invertible_from_junction(p, z, junction, word_len):
    """Exact invertibility of the Dirichlet compression to [0, inf) of a
    potential that is periodic (period word_len) from site `junction` on.

    The orbit x_{-1} = 0, x_0 = 1 is propagated exactly to the junction;
    z is an eigenvalue iff that vector spans the contracting eigendirection
    of the one-period transfer there. For junction = 0 this is the classical
    m12(z) = 0 and |m22(z)| < 1 criterion. The discriminant at z is the
    trace of that transfer.
    """
    if p.regime not in (INTEGER, RATIONAL):
        raise RegimeError("half-line invertibility is decided over Q only")
    zf = to_exact(z)
    m = transfer_product(p, zf, junction, junction + word_len - 1)
    disc_val = m.trace()
    if abs(disc_val) < 2:
        return InvertibilityResult(False, "in_band", {"disc": disc_val})
    if abs(disc_val) == 2:
        return InvertibilityResult(False, "band_edge", {"disc": disc_val})
    # propagate the Dirichlet data to the junction, exactly
    u = (Fraction(0), Fraction(1))  # so the multiplier division is exact
    m_in = transfer_product(p, zf, 0, junction - 1)  # identity if junction <= 0
    u = m_in.apply(u)
    w = m.apply(u)
    wronskian = w[0] * u[1] - w[1] * u[0]
    detail = {"disc": disc_val, "wronskian": wronskian}
    if wronskian != 0:
        return InvertibilityResult(True, "invertible", detail)
    lam = w[0] / u[0] if u[0] != 0 else w[1] / u[1]
    detail["multiplier"] = lam
    if abs(lam) < 1:
        return InvertibilityResult(False, "eigenvalue", detail)
    return InvertibilityResult(True, "invertible", detail)


def halfline_invertible(p, z):
    """Exact invertibility of the Dirichlet half-line compression of p.

    p must be periodic or eventually periodic; only the part of p on
    [0, inf) matters.
    """
    _, rw, _, rj = _side_words(p)
    return _halfline_invertible_from_junction(p, z, max(rj, 0), len(rw))


@dataclass(frozen=True)
class ConditionResult:
    """One applicability condition, decided exactly: holds is a bool."""

    holds: bool
    summary: str
    items: tuple  # per-rotation (residue, InvertibilityResult, cert) or
    # the FredholmResult / InvertibilityResult the verdict rests on


@dataclass(frozen=True)
class ApplicabilityReport:
    operator: str
    z: object
    conditions: dict  # key -> ConditionResult
    applicable: bool


def _rotation_condition(word, z, compress, integer_certificates):
    """Test all rotations of `word` under the one-sided compression.

    compress = "plus" tests the word as written on [0, inf); "minus" tests
    the compression to (-inf, -1], which after the reflection n -> -1 - n is
    the plus-compression of the reversed word. integer_certificates (integer
    word, integral z) adds monodromy_dirichlet_test.
    """
    w = tuple(reversed(word)) if compress == "minus" else tuple(word)
    q = len(w)
    items = []
    bad = []
    for r in range(q):
        rot = periodic(w, phase=r)
        res = _halfline_invertible_from_junction(rot, z, 0, q)
        cert = None
        if integer_certificates and res.status in ("invertible", "eigenvalue"):
            cert = monodromy_dirichlet_test(rot, int(z))
        items.append((r, res, cert))
        if not res.invertible:
            bad.append((r, res.status))
    holds = not bad
    summary = ("all %d rotations invertible" % q) if holds else \
        ("rotation failures: %s" % ", ".join("r=%d %s" % b for b in bad))
    return ConditionResult(holds=holds, summary=summary, items=tuple(items))


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


def _full_line_invertible_condition(p, z):
    fred = is_fredholm(p, z, "full_line")
    if not fred.fredholm:
        return ConditionResult(
            holds=False,
            summary="z in the essential spectrum (side %s, %s)"
                    % (fred.witness_side, fred.side_position[fred.witness_side]),
            items=(fred,))
    # in a gap of both sides, H - z is invertible iff no solution decays at
    # both ends: the left decaying direction, carried across the core,
    # must not be the right one
    lw, rw, lj, rj = _side_words(p)
    (x, y), d_r = _floquet_direction(
        transfer_product(p, z, rj, rj + len(rw) - 1), contracting=True)
    (u, w), d_l = _floquet_direction(
        transfer_product(p, z, lj - len(lw), lj - 1), contracting=False)
    core = transfer_product(p, z, lj, rj - 1)
    # the left direction carried to rj, split into its rational part (k = 0)
    # and its sqrt(d_l) part (k = 1): det [core (u, w), (x, y)] is
    # P + Q sqrt(d_l), with P, Q in Q(sqrt d_r)
    (p0, p1), (q0, q1) = (
        (top * y[0] - bottom * x[0], top * y[1] - bottom * x[1])
        for top, bottom in (core.apply((u[k], w[k])) for k in range(2)))
    # W = 0 iff P^2 - d_l Q^2 = 0 and sign P = -sign Q
    norm = (p0 * p0 + p1 * p1 * d_r - d_l * (q0 * q0 + q1 * q1 * d_r),
            2 * (p0 * p1 - d_l * q0 * q1))
    if _sign(norm, d_r) == 0 and \
            _sign((p0, p1), d_r) == -_sign((q0, q1), d_r):
        return ConditionResult(
            holds=False,
            summary="kernel: the solutions decaying at both ends match, exact",
            items=(fred,))
    return ConditionResult(
        holds=True,
        summary="Fredholm and no kernel: the decaying solutions are "
                "independent, exact",
        items=(fred,))


def _half_line_invertible_condition(p, z):
    res = halfline_invertible(p, z)
    summary = ("half-line operator invertible, exact" if res.invertible
               else "half-line operator not invertible: %s" % res.status)
    return ConditionResult(holds=res.invertible, summary=summary,
                           items=(res,))


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
        conds["d"] = _half_line_invertible_condition(p, zf)
        conds["e"] = _rotation_condition(rw, zf, "minus", integer_certs)
    return ApplicabilityReport(operator=operator, z=z, conditions=conds,
                               applicable=all(c.holds for c in conds.values()))
