"""Command line front end.

    schrod1d bands     --config cfg.json [--out DIR]
    schrod1d fsm       --config cfg.json [--out DIR] [--expect VERDICT]
                       [--exploratory]
    schrod1d reproduce NAME [--out DIR] [--seed N] [--count N]

Exit codes: 0 pass, 1 check failed or verdict mismatch, 2 usage error,
3 inconclusive. All artifacts are deterministic: rerunning a command with
the same config produces byte-identical files.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import jsonio
from .fsm import CutoffSequence, GridVector, SectionScheme, run_fsm
from .potential import PeriodicPotential, potential_from_json
from .reproduce import REPRODUCTIONS, run_reproduction
from .scalars import INTEGER, RATIONAL, _require_int, decode_scalar_any
from .spectral import (CrossValidationError, SpectralStructureError,
                       dirichlet_eigenvalues)
from .transfer import monodromy_dirichlet_test

EXIT_PASS = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(Exception):
    pass


class _Object(dict):
    """A JSON object of a config that records the keys looked up through
    get, the way every config reader reads one. potential_from_json also
    refuses the keys it does not read on its own."""

    def __init__(self, doc):
        super().__init__(doc)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _object(doc, what):
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object" % what)
    return doc


def _int_field(doc, key, default, label):
    return _require_int(doc.get(key, default), "%s must be an integer" % label)


def _number_field(v, label):
    """v, which must be a finite int or float, never a coerced bool or str."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or \
            (isinstance(v, float) and not math.isfinite(v)):
        raise ValueError("%s must be a finite number, got %r" % (label, v))
    return v


def _cutoffs(doc, what):
    kind = _object(doc, what).get("kind")
    if kind == "arithmetic":
        return CutoffSequence.arithmetic(
            _int_field(doc, "start", 8, "cutoff start"),
            _int_field(doc, "step", 8, "cutoff step"))
    if kind == "geometric":
        return CutoffSequence.geometric(
            _int_field(doc, "start", 8, "cutoff start"),
            float(_number_field(doc.get("ratio", 1.5), "cutoff ratio")))
    if kind == "explicit":
        return CutoffSequence.explicit(doc.get("values", ()))
    raise ValueError("unknown %s kind %r" % (what, kind))


def _scheme(doc):
    side = _object(doc, "scheme").get("side")
    if side not in ("full_line", "half_line"):
        raise ValueError("scheme side must be full_line or half_line")
    cut = _object(doc.get("cutoffs"), "scheme cutoffs")
    left = (_cutoffs(cut.get("left"), "left cutoffs")
            if side == "full_line" else None)
    return SectionScheme(operator=side, left=left,
                         right=_cutoffs(cut.get("right"), "right cutoffs"))


def _rhs(doc):
    if doc is None:
        return GridVector.delta(0)
    kind = _object(doc, "rhs").get("kind")
    if kind == "delta":
        return GridVector.delta(_int_field(doc, "site", 0, "rhs site"))
    if kind == "vector":
        values = doc.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError("rhs vector needs a nonempty 'values' array")
        return GridVector(start=_int_field(doc, "start", 0, "rhs start"),
                          values=tuple(float(_number_field(v, "rhs value"))
                                       for v in values))
    raise ValueError("unknown rhs kind %r" % (kind,))


def _read_config(path, command):
    """The checked inputs of a command from its JSON config: the periodic
    potential for bands, (potential, z, scheme, rhs, count) for fsm.

    Each object of the config may hold only the keys its reader looks up.
    A malformed, missing or unknown field is a UsageError naming it.
    """
    objects = []  # innermost first, as json builds them

    def hook(doc):
        objects.append(_Object(doc))
        return objects[-1]

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _object(json.load(fh, object_hook=hook), "config")
        p = potential_from_json(_object(cfg.get("potential"), "potential"))
        if command == "bands":
            if not isinstance(p, PeriodicPotential) or \
                    p.regime not in (INTEGER, RATIONAL):
                raise ValueError("bands needs a periodic integer or rational "
                                 "word, got %s %s" % (p.regime, p.kind))
            list(map(float, p.word))  # the cross-check runs in floats
            inputs = p
        else:
            z = decode_scalar_any(cfg.get("z", 0))
            scheme = _scheme(cfg.get("scheme"))
            rhs = _rhs(cfg.get("rhs"))
            count = _int_field(cfg, "count", 12, "count")
            if count < 1:
                raise ValueError("count must be at least 1, got %d" % count)
            scheme.sections(count)
            inputs = p, z, scheme, rhs, count
        for obj in reversed(objects):
            unknown = sorted(set(obj) - obj.read)
            if unknown:
                raise ValueError("unknown key %r" % unknown[0])
        return inputs
    except OSError as exc:
        raise UsageError("cannot read config: %s" % exc)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise UsageError("bad config: %s" % exc)


def _outdir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_bands(args):
    p = _read_config(args.config, "bands")
    out = _outdir(args)
    ds = dirichlet_eigenvalues(p)
    bs = ds.band_set
    certificates = []
    if p.regime == INTEGER:
        for z in range(min(p.word) - 3, max(p.word) + 4):
            certificates.append(monodromy_dirichlet_test(p, z))
    jsonio.write_json(os.path.join(out, "bands.json"), bs)
    jsonio.write_json(os.path.join(out, "dirichlet.json"), {
        "band_count": len(bs.bands),
        "eigenvalues": [{
            "approx": e.approx,
            "interval": [str(e.lo), str(e.hi)],
            "location": "gap",
            "gap_index": e.gap_index,
        } for e in ds.eigenvalues],
        "rejected_m12_roots": list(ds.rejected),
        "warnings": [],
        "integer_certificates": [{
            "z": c.z, "status": c.status, "trace": c.trace,
            "m11": c.m11, "m12": c.m12, "m21": c.m21, "m22": c.m22,
        } for c in certificates],
    })
    jsonio.write_csv(os.path.join(out, "bands.csv"),
                     ["index", "lower", "upper"],
                     [(i, lo, hi) for i, (lo, hi) in enumerate(bs.bands)])
    print("bands: %d, gaps: %d, dirichlet eigenvalues: %d"
          % (len(bs.bands), len(bs.gaps), len(ds.eigenvalues)))
    return EXIT_PASS


def cmd_fsm(args):
    p, z, scheme, rhs, count = _read_config(args.config, "fsm")
    try:
        report = run_fsm(p, z, scheme, rhs=rhs, count=count)
    except OverflowError as exc:  # raised before any output is written
        raise UsageError("config value out of float range: %s" % exc)
    out = _outdir(args)
    jsonio.write_json(os.path.join(out, "fsm_report.json"), report)
    jsonio.write_csv(
        os.path.join(out, "fsm_report.csv"),
        ["index", "l", "r", "size", "singular", "sigma_min",
         "inverse_norm", "residual", "solution_error"],
        [(r.index, r.l, r.r, r.size, int(r.singular), r.sigma_min,
          r.inverse_norm, r.residual, r.solution_error)
         for r in report.rows])
    jsonio.write_csv(
        os.path.join(out, "stability.csv"),
        ["size", "sigma_min"],
        [(r.size, r.sigma_min) for r in report.rows])
    print("verdict: %s (%s)" % (report.verdict, "; ".join(report.reasons)))
    if args.exploratory:
        return EXIT_PASS
    if args.expect is not None:
        return EXIT_PASS if report.verdict == args.expect else EXIT_FAILED
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_reproduce(args):
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.count is not None:
        if args.count < 1:
            raise UsageError("--count must be at least 1, got %d" % args.count)
        kwargs["count"] = args.count
    if kwargs and args.name != "integer-avoidance":
        raise UsageError("--seed and --count apply to integer-avoidance only")
    result = run_reproduction(args.name, **kwargs)
    out = _outdir(args)
    jsonio.write_json(os.path.join(out, "%s.json" % args.name), result)
    for c in result.checks:
        print("[%s] %s: %s" % ("PASS" if c.passed else "FAIL", c.name, c.detail))
    print("%s: %s" % (result.name, "PASS" if result.passed else "FAIL"))
    return EXIT_PASS if result.passed else EXIT_FAILED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schrod1d",
        description="Spectra and finite sections of one-dimensional "
                    "discrete Schrodinger operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bands", help="band structure and Dirichlet spectrum")
    b.add_argument("--config", required=True)
    b.add_argument("--out")

    f = sub.add_parser("fsm", help="run the finite section method")
    f.add_argument("--config", required=True)
    f.add_argument("--out")
    f.add_argument("--expect", choices=["applicable_observed",
                                        "failure_observed", "inconclusive"])
    f.add_argument("--exploratory", action="store_true",
                   help="write the report but never fail on the verdict")

    r = sub.add_parser("reproduce", help="run a named reproduction")
    r.add_argument("name", choices=sorted(REPRODUCTIONS))
    r.add_argument("--out")
    r.add_argument("--seed", type=int)
    r.add_argument("--count", type=int)
    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up at each call, so a rebound cmd_* function is the one run
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (UsageError, CrossValidationError, SpectralStructureError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
