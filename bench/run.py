"""schrod1d benchmark: three workloads, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Workloads (see ``workloads.py``):

  band-structure  ``schrod1d bands`` on seeded periodic words, periods 3-12
  fsm-large       ``schrod1d fsm --expect`` and ``stability_scan`` on
                  sections of up to about 2.6e5 / 5e5 sites
  fsm-corpus      the gap-certified FSM pipeline as many small jobs

Each workload is a single-process closed loop with one job in flight. A
round is a fixed list of job slots whose contents come from the seed and
the round's index (see ``workloads.py``).

``--trace 0`` runs whole rounds, at least three and until S seconds of job
time have passed, so every run has the same job mix, and reports the
end-to-end metrics: set-up time (median of fresh interpreters importing
``schrod1d`` and generating round 0), checked jobs per second of job time,
median and tail job latency, and peak resident memory.

``--trace 1`` runs round 0 untraced, then again with every public
function of the traced modules wrapped (``tracer.py``), and reports the
per-module metrics declared in ``BENCHMARK.json`` plus the tracing
overhead. Only round 0 is traced, so its counters repeat exactly.

Output checks run between jobs, outside the timed spans. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

_T0 = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("band-structure", "fsm-large", "fsm-corpus")
SETUP_PROBES = 5
MIN_ROUNDS = 3
WALL_CAP_S = 120  # start no round past this, to end well inside 180 s
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

# Wrapped functions that must record calls on a workload: a binding the
# tracer missed would otherwise read as zero work.
# polynomials.count_roots_in is reached only through dirichlet_eigenvalues,
# which the corpus does not call.
SHOULD_MOVE = {
    "band-structure": (
        "polynomials.isolate_real_roots", "polynomials.refine_root",
        "polynomials.real_root_count_with_multiplicity",
        "polynomials.count_roots_in", "polynomials.pgcd", "polynomials.peval",
        "transfer.symbolic_monodromy", "transfer.discriminant",
        "transfer.monodromy_dirichlet_test", "spectral.bands",
        "spectral.dirichlet_eigenvalues", "spectral.truncation_spectrum",
        "cli.main", "jsonio.write_json", "jsonio.write_csv"),
    "fsm-large": (
        "spectral.smallest_singular_value", "fsm.solve_section",
        "potential.value", "fsm.reference_solution", "fsm.run_fsm",
        "fsm.stability_scan", "cli.main", "jsonio.write_json",
        "jsonio.write_csv"),
    "fsm-corpus": (
        "polynomials.isolate_real_roots", "polynomials.refine_root",
        "polynomials.real_root_count_with_multiplicity", "polynomials.pgcd",
        "polynomials.peval", "transfer.symbolic_monodromy",
        "transfer.discriminant", "transfer.monodromy_dirichlet_test",
        "spectral.bands", "spectral.smallest_singular_value",
        "fsm.solve_section", "fsm.reference_solution", "fsm.run_fsm",
        "potential.value", "limitops.fsm_applicability",
        "limitops.is_fredholm"),
}


def _pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import schrod1d from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "schrod1d", "__init__.py")):
        print("error: no src/schrod1d in %s" % ROOT, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import schrod1d
    import schrod1d.cli
    if not os.path.abspath(schrod1d.__file__).startswith(SRC + os.sep):
        print("error: schrod1d imported from %s" % schrod1d.__file__,
              file=sys.stderr)
        sys.exit(2)
    return schrod1d


def _probe(workload, seed):
    """Fresh interpreter: import the program and generate round 0."""
    _import_program()
    import workloads
    workloads.make_round(workload, seed, 0)
    print(repr(time.perf_counter() - _T0))


def _setup_seconds(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def _blas_threads():
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _calibration_s():
    """Fixed pure-Python loop (integer and Fraction arithmetic, the kind of
    work the exact layer does); median of three."""
    from fractions import Fraction
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc, x = Fraction(0), Fraction(3, 7)
        for i in range(20000):
            acc = acc * x + i
            if acc.denominator > 2 ** 256:
                acc = Fraction(acc.numerator % 1000003, 7)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_pin": os.environ.get("OPENBLAS_NUM_THREADS"),
        "calibration_s": _calibration_s(),
    }


class Runner:
    """Closed loop, one job in flight; records spans and check outcomes."""

    def __init__(self, sd, workloads, work):
        self.sd = sd
        self.wl = workloads
        self.work = work
        self.out = os.path.join(work, "out")
        os.makedirs(self.out, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # job time, failed jobs included
        self.sink = io.StringIO()  # what the CLI prints; not benchmark output

    def run_job(self, job):
        """Latency of a checked job, or None if it raised or failed its check."""
        self.attempted += 1
        cfg = self.wl.prepare(job, self.work)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.sink):
                result = self.wl.execute(job, self.sd, cfg, self.out)
        except Exception:  # a job that raises is a failed job, keep going
            self.busy_s += time.perf_counter() - t0
            self.failed += 1
            print("job %s raised:\n%s" % (job.slot, traceback.format_exc()),
                  file=sys.stderr)
            return None
        dt = time.perf_counter() - t0
        self.busy_s += dt
        try:
            self.wl.check(job, result, self.out)
        except self.wl.CheckFailed as exc:
            self.failed += 1
            print("job %s failed its check: %s" % (job.slot, exc),
                  file=sys.stderr)
            return None
        return dt

    def run_round(self, jobs):
        return [self.run_job(job) for job in jobs]


def _tail(latencies):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank); falls back to the median below 20 samples."""
    xs = sorted(latencies)
    n = len(xs)
    best = 50
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    k = max(1, math.ceil(best * n / 100))
    return xs[k - 1], best, n - k


def _untraced(runner, workload, seed, seconds, wall_start):
    """Run whole rounds, at least MIN_ROUNDS and until `seconds` of job
    time; returns the latencies of checked jobs, job time and rounds."""
    latencies = []
    rounds = 0
    while rounds < MIN_ROUNDS or (runner.busy_s < seconds and
                                  time.perf_counter() - wall_start < WALL_CAP_S):
        jobs = runner.wl.make_round(workload, seed, rounds)
        latencies += [t for t in runner.run_round(jobs) if t is not None]
        rounds += 1
    return latencies, runner.busy_s, rounds


def _layer_values(stats, jobs, overhead):
    vals = {"trace.overhead": overhead}
    for name, st in stats.items():
        for field in ("calls", "busy_s", "self_s", "sites", "raised", "bytes"):
            vals["%s.%s" % (name, field)] = getattr(st, field)
    vals["spectral.bands.calls_per_job"] = \
        stats["spectral.bands"].calls / jobs
    ref = stats["fsm.reference_solution"]
    vals["fsm.reference_solution.windows_per_reference"] = \
        ref.nested / ref.calls if ref.calls else 0.0
    return vals


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _emit(metrics, correct, attempted, failed, report):
    for name, m in metrics.items():
        print("%-58s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _pin_blas()
    if args.probe:
        _probe(args.workload, args.seed)
        return 0

    wall_start = time.perf_counter()
    sd = _import_program()
    import tracer
    import workloads
    declared = _declared()
    setup_s, setup_samples = _setup_seconds(args.workload, args.seed)
    env = _environment()
    work = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    os.makedirs(work)
    try:
        runner = Runner(sd, workloads, work)
        if None in runner.run_round(workloads.warmup_jobs(args.workload)):
            raise RuntimeError("warm-up job failed")
        runner = Runner(sd, workloads, work)
        report = {"workload": args.workload, "seed": args.seed, "env": env}

        if args.trace == 0:
            latencies, busy, rounds = _untraced(runner, args.workload,
                                                args.seed, args.seconds,
                                                wall_start)
            n = len(latencies)
            tail, pct, beyond = _tail(latencies) if n else (0.0, 50, 0)
            values = {
                "setup_s": setup_s,
                "jobs_per_s": n / busy if n else 0.0,
                "job_p50_s": statistics.median(latencies) if n else 0.0,
                "job_tail_s": tail,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            specs = declared["end_to_end"]
            report.update({
                "rounds": rounds, "job_seconds": busy, "samples": n,
                "job_tail_percentile": pct, "job_tail_beyond": beyond,
                "setup_samples_s": setup_samples})
        else:
            jobs = workloads.make_round(args.workload, args.seed, 0)
            runner.run_round(jobs)
            untraced_s = runner.busy_s
            tr = tracer.Tracer(sd)
            tr.install()
            try:
                runner.run_round(jobs)
            finally:
                tr.uninstall()
            traced_s = runner.busy_s - untraced_s
            missed = [f for f in SHOULD_MOVE[args.workload]
                      if tr.stats[f].calls == 0]
            if missed:
                raise RuntimeError("traced run recorded no calls to %s"
                                   % ", ".join(missed))
            values = _layer_values(tr.stats, len(jobs), traced_s / untraced_s)
            specs = declared["per_layer"]
            report.update({"untraced_round_s": untraced_s,
                           "traced_round_s": traced_s,
                           "layers": {k: v for k, v in sorted(values.items())
                                      if v}})
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                   for s in specs}
        report["failed_frac"] = runner.failed / runner.attempted
        _emit(metrics, runner.failed == 0, runner.attempted, runner.failed,
              report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
