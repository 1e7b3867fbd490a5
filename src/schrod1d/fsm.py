"""Finite section method: solvers, reference solutions and observed verdicts.

A section of H - z over [l, r] is the symmetric tridiagonal matrix with
diagonal v(l..r) - z and unit off-diagonals. run_fsm solves a growing family
of sections against a fixed right-hand side and classifies what it sees:

  applicable_observed  errors against a trusted reference solution decay
                       monotonically to below 1e-8 and the smallest singular
                       values stay bounded,
  failure_observed     a section past the first SETTLE_ROWS is singular or
                       has an inverse norm past 1e8 (the FSM asks only all
                       but finitely many sections to be invertible), or the
                       errors refuse to decrease,
  inconclusive         anything else (typically: no usable reference).

The verdicts are observations about finite data, not proofs; the exact
counterpart lives in limitops.fsm_applicability.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .scalars import _require_int
from .spectral import _tridiag_data, smallest_singular_value

DIVERGENCE_NORM = 1e8
ERROR_TARGET = 1e-8
PLATEAU_SLACK = 1e-9
RESIDUAL_FACTOR = 1e-10
REFERENCE_CAP = 2 ** 20
REFERENCE_TOL = 1e-12
SECTION_SITES_CAP = 2 ** 24  # sites summed over every section of one run
SETTLE_ROWS = 5


@dataclass(frozen=True)
class CutoffSequence:
    """Monotone positive cutoff magnitudes: arithmetic, geometric or explicit."""

    kind: str
    start: int = 8
    step: int = 8
    ratio: float = 1.5
    explicit_values: tuple = ()

    @classmethod
    def arithmetic(cls, start=8, step=8):
        if start < 1 or step < 1:
            raise ValueError("arithmetic cutoffs need start, step >= 1")
        return cls(kind="arithmetic", start=start, step=step)

    @classmethod
    def geometric(cls, start=8, ratio=1.5):
        if start < 1 or ratio <= 1:
            raise ValueError("geometric cutoffs need start >= 1, ratio > 1")
        return cls(kind="geometric", start=start, ratio=ratio)

    @classmethod
    def explicit(cls, values):
        vals = tuple(_require_int(v, "explicit cutoff values must be integers")
                     for v in values)
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])) or vals[0] < 1:
            raise ValueError("explicit cutoffs must be strictly increasing, >= 1")
        return cls(kind="explicit", explicit_values=vals)

    def value(self, n):
        if n < 0:
            raise IndexError("cutoff index must be >= 0")
        if self.kind == "arithmetic":
            return self.start + n * self.step
        if self.kind == "geometric":
            v = int(round(self.start * self.ratio ** n))
            return max(v, self.start + n)  # enforce strict growth
        if n >= len(self.explicit_values):
            raise IndexError("explicit cutoff sequence exhausted")
        return self.explicit_values[n]

    def count_limit(self):
        return len(self.explicit_values) if self.kind == "explicit" else None


@dataclass(frozen=True)
class SectionScheme:
    """Family of sections: [-left_n, right_n] or [0, right_n]."""

    operator: str  # "full_line" | "half_line"
    right: CutoffSequence
    left: object = None  # CutoffSequence for full_line

    def __post_init__(self):
        if self.operator not in ("full_line", "half_line"):
            raise ValueError("operator must be full_line or half_line")
        if self.operator == "full_line" and self.left is None:
            raise ValueError("full_line scheme needs a left cutoff sequence")
        if self.operator == "half_line" and self.left is not None:
            raise ValueError("half_line scheme fixes the left endpoint at 0")

    def section(self, n):
        r = self.right.value(n)
        l = -self.left.value(n) if self.operator == "full_line" else 0
        return l, r

    def sections(self, count):
        """Up to count sections; ValueError on a cutoff past REFERENCE_CAP,
        read off the last (widest) section before any other is built, and
        as soon as the sections built hold more than SECTION_SITES_CAP
        sites in all."""
        for seq in (self.right, self.left):
            if seq is not None and seq.count_limit() is not None:
                count = min(count, seq.count_limit())
        if count > 0 and max(map(abs, self.section(count - 1))) > REFERENCE_CAP:
            raise ValueError("a cutoff exceeds the cap %d" % REFERENCE_CAP)
        out = []
        sites = 0
        for n in range(count):
            l, r = self.section(n)
            sites += r - l + 1
            if sites > SECTION_SITES_CAP:
                raise ValueError("the sections hold more than %d sites in all"
                                 % SECTION_SITES_CAP)
            out.append((l, r))
        for (l0, r0), (l1, r1) in zip(out, out[1:]):
            if not (l1 <= l0 and r1 > r0):
                raise ValueError("sections must expand monotonically")
        return out


@dataclass(frozen=True, eq=False)
class GridVector:
    """Vector supported on the integer window [start, start + len(values))."""

    start: int
    values: np.ndarray  # float; any sequence is copied into one

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_array(cls, start, arr):
        return cls(start=int(start), values=arr)

    @classmethod
    def delta(cls, n=0):
        return cls(start=n, values=(1.0,))

    @property
    def stop(self):
        return self.start + len(self.values)

    def value(self, n):
        if self.start <= n < self.stop:
            return float(self.values[n - self.start])
        return 0.0

    def array(self):
        return self.values

    def norm(self):
        return float(np.linalg.norm(self.values))

    def restricted(self, l, r):
        out = np.zeros(r - l + 1)
        lo, hi = max(l, self.start), min(r + 1, self.stop)
        if lo < hi:
            out[lo - l:hi - l] = self.values[lo - self.start:hi - self.start]
        return out

    def diff_norm(self, other):
        """l2 norm of the difference, on the union window."""
        lo = min(self.start, other.start)
        hi = max(self.stop, other.stop)
        a = self.restricted(lo, hi - 1)
        b = other.restricted(lo, hi - 1)
        return float(np.linalg.norm(a - b))


class SectionSingularError(ArithmeticError):
    """A finite section was numerically singular."""

    def __init__(self, l, r, sigma_min):
        super().__init__("section [%d, %d] numerically singular "
                         "(sigma_min about %.3e)" % (l, r, sigma_min))
        self.l = l
        self.r = r
        self.sigma_min = sigma_min


def _apply_section(d, x):
    y = d * x
    if len(x) > 1:
        y[:-1] += x[1:]
        y[1:] += x[:-1]
    return y


def solve_section(p, z, l, r, rhs):
    """Solve the [l, r] section of (H - z) x = rhs.

    rhs is a GridVector (restricted to the window). The residual is verified
    by direct multiplication against 1e-10 * ||rhs||; up to two iterative
    refinement steps are attempted before declaring the section singular.
    Raises OverflowError when a diagonal entry v(n) - z is not finite.
    """
    if r < l:
        raise ValueError("empty section")
    b = rhs.restricted(l, r)
    with np.errstate(over='ignore'):
        d = _tridiag_data(p, l, r)[0] - float(z)
    if not np.all(np.isfinite(d)):
        raise OverflowError("v(n) - z beyond the float range on [%d, %d]"
                            % (l, r))
    ab = np.zeros((3, r - l + 1))
    ab[0, 1:] = 1.0
    ab[1] = d
    ab[2, :-1] = 1.0
    bn = float(np.linalg.norm(b))
    target = RESIDUAL_FACTOR * max(bn, 1.0)

    def sigma_estimate():
        try:
            return smallest_singular_value(p, r - l + 1, z, start=l)
        except Exception:
            return float("nan")

    try:
        with np.errstate(all='ignore'):
            x = solve_banded((1, 1), ab, b)
    except np.linalg.LinAlgError:
        raise SectionSingularError(l, r, sigma_estimate())
    if not np.all(np.isfinite(x)):
        raise SectionSingularError(l, r, sigma_estimate())
    res = b - _apply_section(d, x)
    for _ in range(2):
        if float(np.linalg.norm(res)) <= target:
            break
        with np.errstate(all='ignore'):
            dx = solve_banded((1, 1), ab, res)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
        res = b - _apply_section(d, x)
    resid = float(np.linalg.norm(res))
    if not np.isfinite(resid) or resid > target:
        raise SectionSingularError(l, r, sigma_estimate())
    return GridVector.from_array(l, x), resid


class ReferenceInconclusive(RuntimeError):
    """No trusted reference solution could be certified."""


@dataclass(frozen=True)
class ReferenceSolution:
    vector: GridVector
    window: tuple
    tail_mass: float
    doubling_change: float


def reference_solution(p, z, rhs, operator="full_line"):
    """Solve (H - z) x = rhs on windows doubled until the answer is trusted.

    Half-windows run from 64 to REFERENCE_CAP. Certification needs both: the
    relative l2 mass of the trailing quarter of the window at each open end
    below 1e-12, and the relative change under the last doubling below
    1e-12. Raises ReferenceInconclusive when the cap is reached first, when
    sections are singular, or when the rhs sticks out of the window.
    """
    if operator not in ("full_line", "half_line"):
        raise ValueError("operator must be full_line or half_line")
    m = 64
    prev = None
    last_reason = "window cap %d reached" % REFERENCE_CAP
    while m <= REFERENCE_CAP:
        l, r = (-m, m) if operator == "full_line" else (0, m)
        if rhs.start < l or rhs.stop - 1 > r:
            last_reason = "right-hand side support exceeds the window"
            prev = None
            m *= 2
            continue
        try:
            x, _ = solve_section(p, z, l, r, rhs)
        except SectionSingularError as exc:
            raise ReferenceInconclusive(
                "reference section singular: %s" % exc) from exc
        arr = x.array()
        total = float(np.linalg.norm(arr))
        if total == 0.0:
            return ReferenceSolution(vector=x, window=(l, r), tail_mass=0.0,
                                     doubling_change=0.0)
        quarter = max(1, (r - l + 1) // 4)
        tails = [arr[-quarter:]]
        if operator == "full_line":
            tails.append(arr[:quarter])
        tail = max(float(np.linalg.norm(t)) for t in tails) / total
        if prev is not None:
            change = x.diff_norm(prev) / total
            if tail < REFERENCE_TOL and change < REFERENCE_TOL:
                return ReferenceSolution(vector=x, window=(l, r),
                                         tail_mass=tail,
                                         doubling_change=change)
            last_reason = ("tail mass %.3e, doubling change %.3e "
                           "not below %g at window %d"
                           % (tail, change, REFERENCE_TOL, m))
        prev = x
        m *= 2
    raise ReferenceInconclusive(last_reason)


@dataclass(frozen=True)
class FsmRow:
    index: int
    l: int
    r: int
    size: int
    singular: bool
    sigma_min: float
    inverse_norm: float
    residual: float
    solution_error: object  # float, or None without a reference


@dataclass(frozen=True)
class FsmReport:
    operator: str
    z: object
    rows: tuple
    verdict: str  # applicable_observed | failure_observed | inconclusive
    reasons: tuple
    reference: object  # ReferenceSolution or None
    reference_failure: object  # str or None

    def to_json(self):
        return {"operator": self.operator, "z": float(self.z),
                "verdict": self.verdict, "reasons": list(self.reasons),
                "rows": list(self.rows),
                "reference_window": None if self.reference is None
                else list(self.reference.window),
                "reference_failure": self.reference_failure}


def run_fsm(p, z, scheme, rhs=None, count=12):
    """Run the finite section method and classify the observation.

    Errors are tracked against reference_solution when it certifies one.
    Failure witnesses (singular sections, inverse norms beyond 1e8,
    non-decaying errors) dominate, and the first SETTLE_ROWS rows witness
    none of them; the applicable verdict additionally needs the error to
    fall below 1e-8 monotonically (the same rows exempt) with smallest
    singular values spread by less than a factor 10 over the trailing half.
    """
    if rhs is None:
        rhs = GridVector.delta(0)
    sections = scheme.sections(count)

    ref = None
    ref_failure = None
    try:
        ref = reference_solution(p, z, rhs, operator=scheme.operator)
    except ReferenceInconclusive as exc:
        ref_failure = str(exc)

    rows = []
    reasons = []
    for i, (l, r) in enumerate(sections):
        size = r - l + 1
        try:
            x, resid = solve_section(p, z, l, r, rhs)
            smin = smallest_singular_value(p, size, z, start=l)
            err = None
            if ref is not None:
                err = x.diff_norm(ref.vector)
            rows.append(FsmRow(index=i, l=l, r=r, size=size, singular=False,
                               sigma_min=smin,
                               inverse_norm=(1.0 / smin if smin > 0
                                             else float("inf")),
                               residual=resid, solution_error=err))
        except SectionSingularError as exc:
            smin = exc.sigma_min
            rows.append(FsmRow(index=i, l=l, r=r, size=size, singular=True,
                               sigma_min=smin, inverse_norm=float("inf"),
                               residual=float("nan"), solution_error=None))

    late = rows[min(SETTLE_ROWS, max(0, len(rows) - 2)):]
    if any(row.singular for row in late):
        reasons.append("singular section encountered")
    if any(row.inverse_norm > DIVERGENCE_NORM for row in late):
        reasons.append("inverse norms exceed %g" % DIVERGENCE_NORM)

    errs = [row.solution_error for row in rows if row.solution_error is not None]
    settled = errs[min(SETTLE_ROWS, max(0, len(errs) - 2)):]
    monotone = all(b <= a + PLATEAU_SLACK for a, b in zip(settled, settled[1:]))
    if len(errs) >= 3 and not monotone:
        reasons.append("solution errors do not decrease")
    elif len(settled) >= 3 and settled[-1] > ERROR_TARGET and \
            settled[-1] >= settled[0] * 0.99:
        reasons.append("solution errors stagnate above target")

    if reasons:
        verdict = "failure_observed"
    elif errs:
        finite_smins = [row.sigma_min for row in rows if not row.singular]
        tail = finite_smins[len(finite_smins) // 2:]
        spread_ok = (len(tail) >= 1 and min(tail) > 0
                     and max(tail) / min(tail) < 10.0)
        if settled and settled[-1] < ERROR_TARGET and monotone and spread_ok:
            verdict = "applicable_observed"
            reasons.append("errors decay below %g with stable sections"
                           % ERROR_TARGET)
        else:
            verdict = "inconclusive"
            reasons.append("errors computed but convergence not established")
    else:
        verdict = "inconclusive"
        reasons.append("no reference solution available"
                       if ref is None else "no error data")

    return FsmReport(operator=scheme.operator, z=z, rows=tuple(rows),
                     verdict=verdict, reasons=tuple(reasons), reference=ref,
                     reference_failure=ref_failure)


@dataclass(frozen=True)
class StabilityScan:
    operator: str
    z: object
    sizes: tuple
    sigma_mins: tuple
    classification: str  # geometric_decay | bounded_below | undetermined
    slope_per_step: float
    ratio_per_period: float

    def to_json(self):
        return {"operator": self.operator, "z": float(self.z),
                "sizes": list(self.sizes),
                "sigma_mins": list(self.sigma_mins),
                "classification": self.classification,
                "slope_per_step": self.slope_per_step,
                "ratio_per_period": self.ratio_per_period}


def _least_squares_slope(pts):
    """Least-squares slope of y against x over (x, y) points with at least
    two distinct x."""
    x_mean = sum(x for x, _ in pts) / len(pts)
    y_mean = sum(y for _, y in pts) / len(pts)
    den = sum((x - x_mean) ** 2 for x, _ in pts)
    return sum((x - x_mean) * (y - y_mean) for x, y in pts) / den


def stability_scan(p, z, sizes, operator="half_line", period=1):
    """Track sigma_min of growing sections and classify its decay.

    Fits log sigma_min against the size over the trailing half (values below
    1e-13 are excluded as float noise); slopes beyond 1e-3 per step mean
    geometric decay, slopes within the threshold mean bounded below.
    """
    if operator not in ("full_line", "half_line"):
        raise ValueError("operator must be full_line or half_line")
    sizes = tuple(sorted(set(int(s) for s in sizes)))
    if len(sizes) < 4:
        raise ValueError("need at least 4 sizes for a fit")
    vals = []
    for s in sizes:
        start = 0 if operator == "half_line" else -(s // 2)
        vals.append(smallest_singular_value(p, s, z, start=start))
    pts = [(s, math.log(v)) for s, v in zip(sizes, vals) if v > 1e-13]
    pts = pts[len(pts) // 2:]
    if len(pts) < 2:
        if vals[-1] <= 1e-13:
            cls, slope, ratio = "geometric_decay", float("-inf"), 0.0
        else:
            cls, slope, ratio = "undetermined", float("nan"), float("nan")
    else:
        slope = _least_squares_slope(pts)
        if slope < -1e-3:
            cls = "geometric_decay"
        elif abs(slope) <= 1e-3:
            cls = "bounded_below"
        else:
            cls = "undetermined"
        ratio = math.exp(slope * period)
    return StabilityScan(operator=operator, z=z, sizes=sizes,
                         sigma_mins=tuple(vals), classification=cls,
                         slope_per_step=slope, ratio_per_period=ratio)
