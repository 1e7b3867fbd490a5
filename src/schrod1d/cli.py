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
import json
import math
import os
import sys

from . import jsonio
from .fsm import CutoffSequence, GridVector, SectionScheme, run_fsm
from .potential import PeriodicPotential, potential_from_json
from .reproduce import REPRODUCTIONS, run_reproduction
from .scalars import GAUSSIAN, INTEGER, RATIONAL, decode_scalar_any, regime_of
from .spectral import (CrossValidationError, SpectralStructureError,
                       dirichlet_eigenvalues)
from .transfer import monodromy_dirichlet_test

EXIT_PASS = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


class UsageError(Exception):
    pass


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read config: %s" % exc)
    except json.JSONDecodeError as exc:
        raise UsageError("config is not valid JSON: %s" % exc)
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _parse_z(doc):
    try:
        z = decode_scalar_any(doc)
    except ValueError as exc:
        raise UsageError("bad scalar %r: %s" % (doc, exc))
    if regime_of(z) == GAUSSIAN:
        raise UsageError("z must be a number or a 'p/q' string")
    return z


def _int_field(doc, key, default, label):
    """doc[key] (or the default), which must be an int: a float, bool or
    string is a usage error naming the field, never truncated."""
    v = doc.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError("%s must be an integer, got %r" % (label, v))
    return v


def _number_field(v, label):
    """v, which must be a finite int or float, never a coerced bool or str."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or \
            (isinstance(v, float) and not math.isfinite(v)):
        raise UsageError("%s must be a finite number, got %r" % (label, v))
    return v


def _parse_cutoffs(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise UsageError("cutoff document needs a 'kind' field")
    kind = doc["kind"]
    try:
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
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError("bad cutoff document: %s" % exc)
    raise UsageError("unknown cutoff kind %r" % kind)


def _parse_scheme(doc):
    if not isinstance(doc, dict):
        raise UsageError("scheme document must be an object")
    side = doc.get("side")
    if side not in ("full_line", "half_line"):
        raise UsageError("scheme side must be full_line or half_line")
    cut = doc.get("cutoffs")
    if not isinstance(cut, dict):
        raise UsageError("scheme needs a 'cutoffs' object")
    try:
        if side == "full_line":
            if "right" not in cut or "left" not in cut:
                raise UsageError("full_line cutoffs need 'left' and 'right'")
            return SectionScheme(operator=side,
                                 right=_parse_cutoffs(cut["right"]),
                                 left=_parse_cutoffs(cut["left"]))
        right = cut.get("right", cut if "kind" in cut else None)
        if right is None:
            raise UsageError("half_line cutoffs need 'right'")
        return SectionScheme(operator=side, right=_parse_cutoffs(right))
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_rhs(doc):
    if doc is None:
        return GridVector.delta(0)
    if not isinstance(doc, dict) or "kind" not in doc:
        raise UsageError("rhs document needs a 'kind' field")
    try:
        if doc["kind"] == "delta":
            return GridVector.delta(_int_field(doc, "site", 0, "rhs site"))
        if doc["kind"] == "vector":
            values = doc.get("values")
            if not values:
                raise UsageError("rhs vector needs nonempty 'values'")
            return GridVector(start=_int_field(doc, "start", 0, "rhs start"),
                              values=tuple(float(_number_field(v, "rhs value"))
                                           for v in values))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError("bad rhs document: %s" % exc)
    raise UsageError("unknown rhs kind %r" % doc["kind"])


def _potential_from_config(cfg):
    doc = cfg.get("potential")
    if not isinstance(doc, dict):
        raise UsageError("config needs a 'potential' object")
    try:
        return potential_from_json(doc)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise UsageError("bad potential document: %s" % exc)


def _outdir(args, cfg):
    out = args.out or cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_bands(args):
    cfg = _load_config(args.config)
    p = _potential_from_config(cfg)
    if not isinstance(p, PeriodicPotential):
        raise UsageError("bands needs a periodic potential")
    if p.regime not in (INTEGER, RATIONAL):
        raise UsageError("bands needs an integer or rational word, got %s"
                         % p.regime)
    out = _outdir(args, cfg)
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
            "location": e.location,
            "gap_index": e.gap_index,
        } for e in ds.eigenvalues],
        "rejected_m12_roots": list(ds.rejected),
        "warnings": list(ds.warnings),
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
    cfg = _load_config(args.config)
    p = _potential_from_config(cfg)
    if p.regime == GAUSSIAN:
        raise UsageError("fsm needs a real potential, got %s" % p.regime)
    z = _parse_z(cfg.get("z", 0))
    scheme = _parse_scheme(cfg.get("scheme"))
    rhs = _parse_rhs(cfg.get("rhs"))
    count = _int_field(cfg, "count", 12, "count")
    if count < 1:
        raise UsageError("count must be at least 1, got %d" % count)
    try:
        scheme.sections(count)
    except (ValueError, OverflowError) as exc:
        raise UsageError("bad scheme: %s" % exc)
    out = _outdir(args, cfg)
    try:
        report = run_fsm(p, z, scheme, rhs=rhs, count=count)
    except OverflowError as exc:  # raised before any section is solved
        raise UsageError("config value out of float range: %s" % exc)
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
    if args.exploratory or cfg.get("exploratory"):
        return EXIT_PASS
    expect = args.expect or cfg.get("expect")
    if expect is not None:
        return EXIT_PASS if report.verdict == expect else EXIT_FAILED
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_reproduce(args):
    kwargs = {}
    if args.name == "integer-avoidance":
        if args.seed is not None:
            kwargs["seed"] = args.seed
        if args.count is not None:
            kwargs["count"] = args.count
    result = run_reproduction(args.name, **kwargs)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
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
    b.set_defaults(func=cmd_bands)

    f = sub.add_parser("fsm", help="run the finite section method")
    f.add_argument("--config", required=True)
    f.add_argument("--out")
    f.add_argument("--expect", choices=["applicable_observed",
                                        "failure_observed", "inconclusive"])
    f.add_argument("--exploratory", action="store_true",
                   help="write the report but never fail on the verdict")
    f.set_defaults(func=cmd_fsm)

    r = sub.add_parser("reproduce", help="run a named reproduction")
    r.add_argument("name", choices=sorted(REPRODUCTIONS))
    r.add_argument("--out")
    r.add_argument("--seed", type=int)
    r.add_argument("--count", type=int)
    r.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CrossValidationError, SpectralStructureError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
