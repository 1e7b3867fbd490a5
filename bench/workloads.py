"""Seeded inputs, job runners and output checks for the three workloads.

Inputs come from ``random.Random`` only, never from ``schrod1d``, so a
change to the program cannot change what the benchmark asks of it. A
round is a fixed list of slots (size class, word family, scheme); the
seed and the round's index only choose the contents of each slot (which
word, which arrangement of a fixed value multiset, which cutoff offsets),
so the work in a round barely depends on the seed while the inputs still
differ from round to round and from seed to seed.

Every job enters through a door users use: ``schrod1d.cli.main`` with a
generated JSON config, or a library call where the CLI has no verb. Jobs
look the library functions up on their modules at call time, so the
traced run sees every call.
"""

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


@dataclass
class Job:
    slot: str
    kind: str  # "bands" | "fsm" | "scan" | "corpus"
    spec: dict


class CheckFailed(Exception):
    """A job's output does not meet the benchmark's semantic check."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _round_rng(seed, workload, index):
    # one stream per round, so round r is the same however many rounds run
    salt = {"band-structure": 1, "fsm-large": 2, "fsm-corpus": 3}[workload]
    return random.Random((seed * 1000003 + salt) * 1009 + index)


def _exact(v):
    return v if isinstance(v, int) else Fraction(v)


def _transfer(word, z):
    """One-period transfer T(q-1)...T(0) at z with T(n) = [[0, 1], [-1, z - v(n)]],
    exact; an independent route used only to construct and vet inputs."""
    a, b, c, d = 1, 0, 0, 1
    for v in word:
        t = _exact(z) - _exact(v)
        a, b, c, d = c, d, -a + t * c, -b + t * d
    return a, b, c, d


def _jacobi(word, corner):
    q = len(word)
    h = np.diag([float(_exact(v)) for v in word])
    for i in range(q - 1):
        h[i, i + 1] = h[i + 1, i] = 1.0
    h[0, q - 1] += corner
    h[q - 1, 0] += corner
    return h


# ---------------------------------------------------------------- band-structure

# Fixed value multisets; the seed permutes them (and flips the sign of the
# integer ones), which keeps the coefficient sizes of a slot, and so its
# cost, nearly independent of the seed.
_INT_CYCLE = (-3, -1, 1, 3, -2, 0, 2)
_RAT_CYCLE = ("1/2", "-3/2", 2, "1/3", -1, "5/4", 0, "-2/3", 1, "3/2",
              "-1/2", "2/3")


def _int_word(rng, q):
    w = [_INT_CYCLE[i % len(_INT_CYCLE)] for i in range(q)]
    rng.shuffle(w)
    s = rng.choice((1, -1))
    return [s * v for v in w]


def _rat_word(rng, q):
    w = list(_RAT_CYCLE[:q])
    rng.shuffle(w)
    return w


def _rep_word(rng, q, base):
    return _int_word(rng, base) * (q // base)


# (period, family); repeated words carry the length of the repeated block.
# Periods >= 10 take about two thirds of a round. With three to seven
# rounds the tail percentile (top quarter plus ten samples) falls among
# the q = 8-9 words ranked 3-5 from the top, and the median among the
# repeated words q = 10 and 11, whose cost hardly depends on the seed
# (words with Dirichlet eigenvalues near a band edge, such as some q = 5
# ones, cost three times more when truncation cross-checks escalate).
BAND_SLOTS = (
    (12, "int"), (3, "rep1"), (4, "rep2"), (9, "int"), (3, "int"),
    (7, "rep1"), (8, "rat"), (4, "rat"), (10, "int"), (6, "rep3"),
    (10, "rep2"), (8, "int"), (11, "rep1"), (5, "int"),
)


def _bands_round(rng):
    jobs = []
    for q, fam in BAND_SLOTS:
        if fam == "int":
            word = _int_word(rng, q)
        elif fam == "rat":
            word = _rat_word(rng, q)
        else:
            word = _rep_word(rng, q, int(fam[3:]))
        jobs.append(Job("q%d-%s" % (q, fam), "bands",
                        {"config": {"potential": {"kind": "periodic",
                                                  "word": word}}}))
    return jobs


def _check_bands(job, out):
    word = job.spec["config"]["potential"]["word"]
    q = len(word)
    with open(os.path.join(out, "bands.json"), encoding="ascii") as fh:
        bs = json.load(fh)
    with open(os.path.join(out, "dirichlet.json"), encoding="ascii") as fh:
        ds = json.load(fh)
    edges = [(Fraction(e["lo"]), Fraction(e["hi"])) for e in bs["edges"]]
    width = Fraction(1, 2 ** 60)
    _require(all(lo <= hi and hi - lo <= width for lo, hi in edges),
             "edge interval wider than 2^-60")
    mids = np.array([float((lo + hi) / 2) for lo, hi in edges])
    floquet = np.concatenate([np.linalg.eigvalsh(_jacobi(word, 1.0)),
                              np.linalg.eigvalsh(_jacobi(word, -1.0))])
    _require(all(np.min(np.abs(floquet - m)) <= 1e-9 for m in mids),
             "band edge is no Floquet eigenvalue")
    _require(all(np.min(np.abs(mids - f)) <= 1e-9 for f in floquet),
             "Floquet eigenvalue is no band edge")
    _require(ds["band_count"] == len(bs["bands"]), "band count mismatch")
    # exact band intervals: each band starts and ends at an edge root
    by_mid = {float((lo + hi) / 2): (lo, hi) for lo, hi in edges}
    bands = [(by_mid[a][0], by_mid[b][1]) for a, b in bs["bands"]]
    section = np.linalg.eigvalsh(_jacobi(word[:q - 1], 0.0)) if q > 2 \
        else np.array([float(_exact(word[0]))])
    for e in ds["eigenvalues"]:
        lo, hi = Fraction(e["interval"][0]), Fraction(e["interval"][1])
        _require(hi - lo <= width, "Dirichlet interval wider than 2^-60")
        _require(all(hi < blo or lo > bhi for blo, bhi in bands),
                 "Dirichlet eigenvalue inside a band")
        _require(np.min(np.abs(section - e["approx"])) <= 1e-9,
                 "Dirichlet eigenvalue is no eigenvalue of section [0, q-2]")
    # the roots of m12 are the q-1 simple eigenvalues of that section
    _require(len(ds["eigenvalues"]) + len(ds["rejected_m12_roots"]) == q - 1,
             "m12 roots not all accounted for")


# ---------------------------------------------------------------- fsm-large

# Families whose verdict follows from the construction, not from the
# program: "dominant" potentials keep |v(n) - z| >= 5/2 at every site, so
# every section has sigma_min >= 1/2 (Gershgorin) and the FSM applies;
# "defect" words (a, 1/a, c) with |a| < 1 give the half-line Dirichlet
# operator the eigenvalue z = 0 (m12(0) = 0, m22(0) = a), so sections
# become singular and the FSM fails. Each family keeps one mix of integer
# and rational entries, since float(Fraction) per site costs more than
# float(int) and would otherwise make a slot's cost depend on the seed.
_DOM_INTS = (3, -3, 4, -4, 5, -5)
_DOM_RATS = ("5/2", "-5/2", "7/2", "-7/2")
_DEFECT_A = ("1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/4", "-3/4")
_DEFECT_C = (0, 1, -1, 2, -2, 3)
_STURM_Z = (-3, -4, 4, 5)


def _potential(rng, family):
    """(potential document, z, expected verdict) for a family."""
    if family == "periodic":
        q = rng.randint(2, 7)
        return ({"kind": "periodic",
                 "word": [rng.choice(_DOM_INTS) for _ in range(q)]},
                0, "applicable_observed")
    if family == "random":
        vals = rng.sample(_DOM_INTS, 2) + [rng.choice(_DOM_RATS)]
        rng.shuffle(vals)
        return ({"kind": "random", "seed": rng.getrandbits(63),
                 "values": vals}, 0, "applicable_observed")
    if family == "sturmian":
        return ({"kind": "sturmian", "offset": rng.randint(-10 ** 6, 10 ** 6)},
                rng.choice(_STURM_Z), "applicable_observed")
    a = rng.choice(_DEFECT_A)
    inv = str(1 / Fraction(a))
    word = [a, inv, rng.choice(_DEFECT_C)]
    m11, m12, m21, m22 = _transfer(word, 0)
    assert m12 == 0 and abs(m22) < 1  # z = 0 is a Dirichlet eigenvalue
    return {"kind": "periodic", "word": word}, 0, "failure_observed"


def _cutoffs(rng, kind, top, count):
    """Cutoff document whose last value is close to `top`."""
    if kind == "arithmetic":
        start = rng.randint(4, 64)
        step = max(1, (top - start) // (count - 1))
        return {"kind": "arithmetic", "start": start, "step": step}
    ratio = 2.0
    start = max(1, round(top / ratio ** (count - 1))) + rng.randint(0, 3)
    return {"kind": "geometric", "start": start, "ratio": ratio}


# (family, side, cutoff kind, largest cutoff per side, section count);
# a full-line section spans about twice the cutoff; "scan" slots name the
# potential family in place of the cutoff kind. Two large jobs lead; with
# three to seven rounds the tail percentile falls in the middle of the
# three medium ones ranked 3-5.
FSM_SLOTS = (
    ("periodic", "full_line", "geometric", 130000, 12),
    ("random", "half_line", "geometric", 20000, 10),
    ("sturmian", "half_line", "arithmetic", 90000, 6),
    ("defect", "half_line", "arithmetic", 10000, 8),
    ("scan", "full_line", "random", 50000, 4),
    ("random", "full_line", "arithmetic", 30000, 6),
    ("sturmian", "full_line", "geometric", 10000, 10),
    ("periodic", "half_line", "arithmetic", 20000, 8),
    ("scan", "half_line", "defect", 500000, 4),
    ("defect", "half_line", "geometric", 130000, 14),
    ("random", "full_line", "geometric", 8000, 9),
    ("scan", "half_line", "sturmian", 50000, 4),
    ("sturmian", "half_line", "geometric", 8000, 9),
    ("periodic", "full_line", "arithmetic", 8000, 8),
)


def _fsm_round(rng):
    jobs = []
    for family, side, cut, top, count in FSM_SLOTS:
        if family == "scan":
            doc, z, _ = _potential(rng, cut)
            base = top // 2 ** (count - 1)
            sizes = [base * 2 ** i + rng.randint(0, 7) for i in range(count)]
            jobs.append(Job("scan-%s-%s-%d" % (cut, side, top), "scan", {
                "potential": doc, "z": z, "sizes": sizes, "operator": side,
                "expect": ("geometric_decay" if cut == "defect"
                           else "bounded_below")}))
            continue
        doc, z, expect = _potential(rng, family)
        if side == "full_line":
            cutoffs = {"left": _cutoffs(rng, cut, top, count),
                       "right": _cutoffs(rng, cut, top, count)}
        else:
            cutoffs = {"right": _cutoffs(rng, cut, top, count)}
        config = {"potential": doc, "z": z, "count": count,
                  "scheme": {"side": side, "cutoffs": cutoffs}}
        jobs.append(Job("%s-%s-%s-%d" % (family, side, cut, top), "fsm",
                        {"config": config, "expect": expect}))
    return jobs


# ---------------------------------------------------------------- fsm-corpus

# Four words per period pattern. Three or four rounds give 144 or 192
# jobs, so the tail is p90 either way and falls in the middle of the
# q = 8 words; the median falls among the q = 4 words.
CORPUS_PERIODS = (3, 3, 4, 4, 4, 4, 4, 5, 6, 7, 8, 8) * 4
CORPUS_COUNT = 10


def _gap_word(rng, q):
    """Integer word with 0 in a spectral gap, plus its trace at 0.

    Over the integers |trace| > 2 means |trace| >= 3, so every such word has
    a gap margin; integrality also rules out Dirichlet eigenvalues at 0, so
    the full-line FSM applies (the exact verdict the corpus checks)."""
    while True:
        word = [rng.randint(-3, 3) for _ in range(q)]
        m11, _, _, m22 = _transfer(word, 0)
        if abs(m11 + m22) > 2:
            return word, m11 + m22


def _corpus_side(rng, q, need, count):
    # steps and ratios keep each side's cutoff phase mod q fixed, so the
    # section sigma_min settles instead of jumping between rotations
    if rng.random() < 0.5:
        step = q * max(1, math.ceil(need / (q * (count - 1))))
        return {"kind": "arithmetic", "start": rng.randint(1, 3 * q),
                "step": step}
    start = q * max(rng.randint(1, 3),
                    math.ceil(need / (q * 2 ** (count - 1))))
    return {"kind": "geometric", "start": start, "ratio": 2.0}


def _far_from_zero(word, left, right):
    """Smallest |eigenvalue| of the last section is at least 1e-3
    (float route independent of the program)."""
    q = len(word)
    d = np.array([float(word[n % q]) for n in range(-left, right + 1)])
    ev = eigvalsh_tridiagonal(d, np.ones(len(d) - 1), select="v",
                              select_range=(-1e-3, 1e-3))
    return len(ev) == 0


def _last_cutoff(doc, count):
    if doc["kind"] == "arithmetic":
        return doc["start"] + (count - 1) * doc["step"]
    return doc["start"] * 2 ** (count - 1)


def _corpus_job(rng, q):
    while True:
        word, trace = _gap_word(rng, q)
        lam = (abs(trace) + math.sqrt(trace * trace - 4)) / 2
        # sections reach 45 decay lengths of the gap at 0: error e^-45
        need = math.ceil(45 * q / math.log(lam))
        left = _corpus_side(rng, q, need, CORPUS_COUNT)
        right = _corpus_side(rng, q, need, CORPUS_COUNT)
        if _far_from_zero(word, _last_cutoff(left, CORPUS_COUNT),
                          _last_cutoff(right, CORPUS_COUNT)):
            return Job("q%d" % q, "corpus",
                       {"word": word, "left": left, "right": right,
                        "count": CORPUS_COUNT})


def _corpus_round(rng):
    return [_corpus_job(rng, q) for q in CORPUS_PERIODS]


# ---------------------------------------------------------------- running jobs

ROUNDS = {"band-structure": _bands_round, "fsm-large": _fsm_round,
          "fsm-corpus": _corpus_round}


def make_round(workload, seed, index):
    """Round `index` of a run: the same slots, fresh contents."""
    return ROUNDS[workload](_round_rng(seed, workload, index))


def warmup_jobs(workload):
    """Small untimed jobs that take each code path of a workload once."""
    if workload == "band-structure":
        return [Job("warmup", "bands", {"config": {"potential": {
            "kind": "periodic", "word": [1, "1/2", -1]}}})]
    if workload == "fsm-large":
        doc = {"kind": "periodic", "word": [3, -4]}
        return [
            Job("warmup", "fsm", {"expect": "applicable_observed", "config": {
                "potential": doc, "z": 0, "count": 6,
                "scheme": {"side": "full_line", "cutoffs": {
                    "left": {"kind": "arithmetic", "start": 8, "step": 8},
                    "right": {"kind": "arithmetic", "start": 8, "step": 8}}}}}),
            Job("warmup", "scan", {"potential": doc, "z": 0,
                                   "sizes": [16, 32, 64, 128],
                                   "operator": "full_line",
                                   "expect": "bounded_below"})]
    return [_corpus_job(random.Random(0), 3)]


def prepare(job, work):
    """Write the job's config file (outside the timed span)."""
    if "config" in job.spec:
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(job.spec["config"], fh)
        return path
    return None


def execute(job, sd, config_path, out):
    """Run one job through the program; returns what check() needs."""
    if job.kind == "bands":
        return sd.cli.main(["bands", "--config", config_path, "--out", out])
    if job.kind == "fsm":
        return sd.cli.main(["fsm", "--config", config_path, "--out", out,
                            "--expect", job.spec["expect"]])
    if job.kind == "scan":
        s = job.spec
        p = sd.potential.potential_from_json(s["potential"])
        return sd.fsm.stability_scan(p, s["z"], s["sizes"],
                                     operator=s["operator"])
    s = job.spec
    p = sd.potential.periodic(s["word"])
    d = sd.transfer.discriminant(p)
    bs = sd.spectral.bands(d)
    dist = bs.distance_to_spectrum(0)
    app = sd.limitops.fsm_applicability(p, 0, "full_line")
    scheme = sd.fsm.SectionScheme(
        "full_line", right=_sequence(sd, s["right"]),
        left=_sequence(sd, s["left"]))
    report = sd.fsm.run_fsm(p, 0, scheme, count=s["count"])
    return dist, app.applicable, report.verdict


def _sequence(sd, doc):
    if doc["kind"] == "arithmetic":
        return sd.fsm.CutoffSequence.arithmetic(doc["start"], doc["step"])
    return sd.fsm.CutoffSequence.geometric(doc["start"], doc["ratio"])


def check(job, result, out):
    """Semantic output check; raises CheckFailed."""
    if job.kind == "bands":
        _require(result == 0, "bands exit code %r" % (result,))
        _check_bands(job, out)
    elif job.kind == "fsm":
        # --expect makes exit 0 mean "the verdict matched"
        _require(result == 0, "fsm exit code %r, expected verdict %s"
                 % (result, job.spec["expect"]))
    elif job.kind == "scan":
        _require(result.classification == job.spec["expect"],
                 "stability scan %s, expected %s"
                 % (result.classification, job.spec["expect"]))
    else:
        dist, applicable, verdict = result
        _require(dist > 0, "0 is not in a gap")
        _require(applicable is True, "fsm_applicability says %r" % applicable)
        _require(verdict == "applicable_observed", "verdict %s" % verdict)
