import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import schrod1d
from schrod1d import cli, spectral
from test_potential import family_examples


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bands_cfg(tmp_path, word=("1/2", 2, "1/2")):
    return write_cfg(tmp_path, "bands.json",
                     {"potential": {"kind": "periodic", "word": list(word)}})


def fsm_cfg(tmp_path, **extra):
    doc = {"potential": {"kind": "periodic", "word": [4]},
           "z": 0,
           "scheme": {"side": "full_line",
                      "cutoffs": {"right": {"kind": "arithmetic",
                                            "start": 4, "step": 4},
                                  "left": {"kind": "arithmetic",
                                           "start": 5, "step": 3}}},
           "count": 8}
    doc.update(extra)
    return write_cfg(tmp_path, "fsm.json", doc)


def test_bands_writes_outputs(tmp_path, capsys):
    cfg = bands_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["bands", "--config", cfg, "--out", str(out)])
    assert rc == 0
    bands = json.loads((out / "bands.json").read_text())
    assert len(bands["bands"]) == 3
    dirichlet = json.loads((out / "dirichlet.json").read_text())
    assert len(dirichlet["eigenvalues"]) == 1
    assert (out / "bands.csv").exists()


def test_bands_reruns_byte_identical(tmp_path):
    cfg = bands_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["bands", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["bands", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("bands.json", "dirichlet.json", "bands.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bands_integer_certificates(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"potential": {"kind": "periodic", "word": [0, 3]}})
    out = tmp_path / "out"
    assert cli.main(["bands", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "dirichlet.json").read_text())
    certs = doc["integer_certificates"]
    zs = sorted(c["z"] for c in certs)
    assert zs == list(range(-3, 7))
    assert all(c["status"] in ("not_gap", "gap_no_dirichlet") for c in certs)


def test_bands_requires_periodic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json",
                    {"potential": {"kind": "sturmian"}})
    rc = cli.main(["bands", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bands_rejects_missing_file(tmp_path, capsys):
    rc = cli.main(["bands", "--config", str(tmp_path / "missing.json")])
    assert rc == 2


def test_fsm_pass_and_outputs(tmp_path, capsys):
    cfg = fsm_cfg(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["fsm", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "verdict: applicable_observed" in capsys.readouterr().out
    report = json.loads((out / "fsm_report.json").read_text())
    assert report["verdict"] == "applicable_observed"
    assert (out / "fsm_report.csv").exists()
    stability = (out / "stability.csv").read_text().splitlines()
    assert stability[0] == "size,sigma_min"
    assert len(stability) == 9


def test_fsm_expect_match_and_mismatch(tmp_path):
    cfg = fsm_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["fsm", "--config", cfg, "--out", out,
                     "--expect", "applicable_observed"]) == 0
    assert cli.main(["fsm", "--config", cfg, "--out", out,
                     "--expect", "failure_observed"]) == 1


def test_fsm_failure_expected(tmp_path):
    cfg = write_cfg(tmp_path, "f.json", {
        "potential": {"kind": "periodic", "word": ["1/2", 2, "1/2"]},
        "z": 0,
        "scheme": {"side": "half_line",
                   "cutoffs": {"right": {"kind": "arithmetic",
                                         "start": 6, "step": 6}}},
        "count": 8})
    out = str(tmp_path / "out")
    assert cli.main(["fsm", "--config", cfg, "--out", out,
                     "--expect", "failure_observed"]) == 0
    # exploratory never fails on the verdict
    assert cli.main(["fsm", "--config", cfg, "--out", out,
                     "--exploratory"]) == 0


def test_fsm_inconclusive_exit(tmp_path):
    cfg = write_cfg(tmp_path, "f.json", {
        "potential": {"kind": "periodic", "word": [0]},
        "z": 0,
        "scheme": {"side": "full_line",
                   "cutoffs": {"right": {"kind": "explicit",
                                         "values": [5, 11, 17, 23]},
                               "left": {"kind": "explicit",
                                        "values": [6, 12, 18, 24]}}},
        "count": 4})
    rc = cli.main(["fsm", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc in (1, 3)


def test_fsm_rerun_byte_identical(tmp_path):
    cfg = fsm_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["fsm", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["fsm", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("fsm_report.json", "fsm_report.csv", "stability.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fsm_bad_scheme(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "f.json", {
        "potential": {"kind": "periodic", "word": [4]},
        "scheme": {"side": "diagonal",
                   "cutoffs": {"right": {"kind": "arithmetic"}}}})
    assert cli.main(["fsm", "--config", cfg]) == 2


@pytest.mark.parametrize("name", ["example-4-1", "example-4-2",
                                  "fibonacci-prefix"])
def test_reproduce_names_pass(tmp_path, capsys, name):
    rc = cli.main(["reproduce", name, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.strip().endswith("PASS")
    doc = json.loads((tmp_path / ("%s.json" % name)).read_text())
    assert doc["passed"] is True


def test_reproduce_integer_avoidance_small(tmp_path, capsys):
    rc = cli.main(["reproduce", "integer-avoidance", "--out", str(tmp_path),
                   "--seed", "7", "--count", "50"])
    assert rc == 0
    doc = json.loads((tmp_path / "integer-avoidance.json").read_text())
    assert doc["data"]["count"] == 50 and doc["data"]["seed"] == 7
    assert doc["data"]["violations"] == 0


def test_reproduce_integer_avoidance_without_m12_zero_points(tmp_path, capsys):
    # a sweep too small to meet m12 = 0 has nothing to certify and passes
    rc = cli.main(["reproduce", "integer-avoidance", "--out", str(tmp_path),
                   "--seed", "-1", "--count", "2"])
    assert rc == 0
    assert "[PASS] unimodular_certificates: no sweep point has m12 = 0" \
        in capsys.readouterr().out
    doc = json.loads((tmp_path / "integer-avoidance.json").read_text())
    assert doc["data"]["m12_zero_points"] == 0


@pytest.mark.parametrize("argv", [
    pytest.param(["example-4-2", "--seed", "5", "--count", "3"],
                 id="flags-of-integer-avoidance"),
    pytest.param(["integer-avoidance", "--count", "0"], id="count-0"),
    pytest.param(["integer-avoidance", "--count", "-4"], id="count-negative"),
])
def test_reproduce_misused_flags_are_usage_errors(tmp_path, argv):
    out = str(tmp_path / "out")
    _assert_usage_error(out, *_run_main(["reproduce"] + argv + ["--out", out]))


def test_reproduce_unknown_name():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "nope"])
    assert exc.value.code == 2


def test_usage_error_on_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _run_main(argv):
    """(exit code, stderr lines) of cli.main, run in-process; an exception
    out of main, which would be a traceback, fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().splitlines()


def _assert_usage_error(out, rc, lines):
    assert rc == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not os.path.exists(out)


def _fsm_doc(**extra):
    doc = {"potential": {"kind": "periodic", "word": [4]}, "z": 0,
           "scheme": {"side": "half_line",
                      "cutoffs": {"right": {"kind": "arithmetic",
                                            "start": 4, "step": 4}}},
           "count": 4}
    doc.update(extra)
    return doc


def _cutoff_doc(**cutoff):
    right = dict({"kind": "arithmetic", "start": 4, "step": 4}, **cutoff)
    return _fsm_doc(scheme={"side": "half_line", "cutoffs": {"right": right}})


def _word(word, **extra):
    return {"potential": dict({"kind": "periodic", "word": word}, **extra)}


MALFORMED = [
    pytest.param("fsm", _fsm_doc(count="abc"), id="count-abc"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "delta", "site": "x"}),
                 id="rhs-site-x"),
    pytest.param("fsm", [_fsm_doc()], id="fsm-top-level-array"),
    pytest.param("bands", [_word([4])], id="bands-top-level-array"),
    pytest.param("bands", {"potential": [4]}, id="potential-array"),
    pytest.param("fsm", _fsm_doc(scheme={"side": "half_line", "cutoffs": {
        "right": {"kind": "geometric", "start": 8, "ratio": 1e308}}}),
        id="geometric-ratio-1e308"),
    pytest.param("bands", _word([0.5, 1.0]), id="bands-float-word"),
    pytest.param("bands", _word([[1, 1], 2]), id="bands-gaussian-word"),
    pytest.param("fsm", dict(_fsm_doc(), **_word([[1, 1], 2])),
                 id="fsm-gaussian-word"),
    pytest.param("fsm", _fsm_doc(z=[1, 1]), id="fsm-z-pair"),
    pytest.param("fsm", dict(_fsm_doc(), **_word([10 ** 400, 1])),
                 id="fsm-huge-int-word"),
    # in float range, but LAPACK's eigenvalue bisection overflows bounding
    # the sections and returns no eigenvalue
    pytest.param("fsm", dict(_fsm_doc(), **_word([1e308, -1e308])),
                 id="fsm-word-beyond-bisection-range"),
    # v and z are in float range, but the diagonal v - z = 2e308 is not
    pytest.param("fsm", dict(_fsm_doc(z=-1e308, scheme={
        "side": "full_line", "cutoffs": {
            side: {"kind": "arithmetic", "start": 8, "step": 8}
            for side in ("left", "right")}}), **_word([1e308, 1e308])),
        id="fsm-diagonal-beyond-float-range"),
    pytest.param("bands", _word(["1/0", 1]), id="bands-zero-denominator"),
    pytest.param("fsm", dict(_fsm_doc(), **_word(["1/0", 1])),
                 id="fsm-zero-denominator"),
    pytest.param("fsm", _fsm_doc(z=float("nan")), id="fsm-z-nan"),
    pytest.param("fsm", _fsm_doc(z=float("inf")), id="fsm-z-infinity"),
    pytest.param("fsm", dict(_fsm_doc(), **_word([float("nan"), 1])),
                 id="fsm-nan-word"),
    pytest.param("fsm", dict(_fsm_doc(), **_word([float("inf"), 1])),
                 id="fsm-infinite-word"),
    pytest.param("fsm", dict(_fsm_doc(), potential={
        "kind": "explicit", "window": [1], "start": "x"}),
        id="explicit-start-x"),
    pytest.param("bands", _word([4], phase="x"), id="periodic-phase-x"),
    pytest.param("fsm", dict(_fsm_doc(), potential={
        "kind": "sturmian", "offset": 1.5}), id="sturmian-offset-float"),
    pytest.param("fsm", _cutoff_doc(start=4.9), id="cutoff-start-float"),
    pytest.param("fsm", _cutoff_doc(step=True), id="cutoff-step-bool"),
    pytest.param("fsm", _cutoff_doc(kind="geometric", start=8.5, ratio=2),
                 id="geometric-start-float"),
    pytest.param("fsm", _cutoff_doc(kind="explicit", values=[3.7, 5, 9]),
                 id="explicit-values-float"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "delta", "site": 0.5}),
                 id="rhs-site-float"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "vector", "start": 3.7,
                                      "values": [1.0]}),
                 id="rhs-start-float"),
    pytest.param("fsm", _fsm_doc(count=3.7), id="count-float"),
    pytest.param("fsm", _fsm_doc(count=True), id="count-bool"),
    pytest.param("fsm", _fsm_doc(count=-5), id="count-negative"),
    pytest.param("fsm", _cutoff_doc(kind="geometric", ratio=float("nan")),
                 id="geometric-ratio-nan"),
    pytest.param("fsm", _cutoff_doc(kind="geometric", ratio="2"),
                 id="geometric-ratio-string"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "vector",
                                      "values": [1.0, float("nan")]}),
                 id="rhs-value-nan"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "vector", "values": [True]}),
                 id="rhs-value-bool"),
    pytest.param("fsm", _fsm_doc(rhs={"kind": "vector", "values": ["2"]}),
                 id="rhs-value-string"),
    # sections of about 8e12 sites and 1e12 sites: refused before any is built
    pytest.param("fsm", _cutoff_doc(kind="geometric", ratio=1e6),
                 id="geometric-ratio-1e6"),
    pytest.param("fsm", _cutoff_doc(start=10 ** 12),
                 id="arithmetic-start-1e12"),
    # the flags alone set these; as config keys they are unknown
    pytest.param("fsm", _fsm_doc(out=5), id="config-out-key"),
    pytest.param("fsm", _fsm_doc(expect="bogus"), id="config-expect-key"),
    pytest.param("fsm", _fsm_doc(exploratory="no"),
                 id="config-exploratory-key"),
    # half_line takes a single 'right' cutoff document
    pytest.param("fsm", _fsm_doc(scheme={"side": "half_line", "cutoffs": {
        "kind": "arithmetic", "start": 4, "step": 4}}),
        id="half-line-bare-cutoffs"),
    pytest.param("bands", dict(_word([4]), z=0, count=4),
                 id="bands-with-fsm-keys"),
    pytest.param("bands", _word([4], phse=1), id="potential-unknown-key"),
    # a string is not an array of its characters
    pytest.param("bands", _word("12"), id="bands-word-string"),
    pytest.param("fsm", dict(_fsm_doc(), potential={
        "kind": "random", "seed": 1, "values": "35"}),
        id="random-values-string"),
    # a Sturmian potential has no orientation, a random one no index offset
    pytest.param("fsm", dict(_fsm_doc(), potential={
        "kind": "sturmian", "offset": 3, "orientation": -1}),
        id="sturmian-orientation-key"),
    pytest.param("fsm", dict(_fsm_doc(), potential={
        "kind": "random", "seed": 1, "values": [3, 4], "index_offset": 5}),
        id="random-index-offset-key"),
]


@pytest.mark.parametrize("command,doc", MALFORMED)
def test_malformed_config_is_a_usage_error(tmp_path, command, doc):
    cfg = write_cfg(tmp_path, "c.json", doc)
    out = str(tmp_path / "out")
    _assert_usage_error(out, *_run_main([command, "--config", cfg,
                                         "--out", out]))


@pytest.mark.parametrize("command,doc,message", [
    ("bands", _word([[1, 1], 2]), "cannot decode scalar [1, 1]"),
    ("fsm", dict(_fsm_doc(), **_word([[1, 1], 2])),
     "cannot decode scalar [1, 1]"),
    ("fsm", dict(_fsm_doc(), **_word([1, 2], regime="gaussian_integer")),
     "unknown key 'regime'"),
    ("fsm", _fsm_doc(z=[1, 1]), "cannot decode scalar [1, 1]"),
])
def test_complex_scalars_are_refused_by_the_decoder(tmp_path, command, doc,
                                                    message):
    # scalars are real: an [re, im] pair has no reading, and a config names
    # no regime, complex or not
    cfg = write_cfg(tmp_path, "c.json", doc)
    out = str(tmp_path / "out")
    rc, lines = _run_main([command, "--config", cfg, "--out", out])
    _assert_usage_error(out, rc, lines)
    assert lines[0] == "error: bad config: " + message


@pytest.mark.parametrize("command,doc", [
    ("bands", _word([1, 2], regime="integer")),
    ("bands", _word(["1/2", 2], regime="rational")),
    ("fsm", dict(_fsm_doc(), **_word([4], regime="integer"))),
    ("fsm", dict(_fsm_doc(), **_word([4.5], regime="float"))),
])
def test_a_declared_regime_is_an_unknown_key(tmp_path, command, doc):
    # the regime is read off the values; a config does not declare one
    cfg = write_cfg(tmp_path, "c.json", doc)
    out = str(tmp_path / "out")
    rc, lines = _run_main([command, "--config", cfg, "--out", out])
    _assert_usage_error(out, rc, lines)
    assert lines == ["error: bad config: unknown key 'regime'"]


def test_module_entry_point_exits_with_the_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", _fsm_doc(count="abc"))
    out = str(tmp_path / "out")
    src = os.path.dirname(os.path.dirname(schrod1d.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "schrod1d.cli", "fsm", "--config", cfg,
         "--out", out],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    _assert_usage_error(out, proc.returncode, proc.stderr.splitlines())


def test_sections_past_the_sites_cap_are_refused_at_once(tmp_path):
    # 2^20 sections [0, 1], [0, 2], ...: about 5.5e11 sites in all
    cfg = write_cfg(tmp_path, "c.json",
                    dict(_cutoff_doc(start=1, step=1), count=2 ** 20))
    out = str(tmp_path / "out")
    t0 = time.perf_counter()
    rc, lines = _run_main(["fsm", "--config", cfg, "--out", out])
    assert time.perf_counter() - t0 < 1.0
    _assert_usage_error(out, rc, lines)
    assert "sites" in lines[0]


# Mutations of well-formed configs. Every potential keeps |v(n) - z| >= 5/2
# at every site (z is 0 or +-1/2, and 0 when dropped), so every section is
# invertible and the reference certifies at a small window; cutoffs stay at
# or below 64 and count at or below 4 (12 when dropped), far below 2^20.
_ENTRIES = st.sampled_from([3, -3, 4, -5, "7/2", "-10/3"])
_WORDS = st.lists(_ENTRIES, min_size=1, max_size=4)
_INDEX = st.integers(-20, 20)
_FSM_POTENTIALS = st.one_of(
    st.builds(lambda w, k: {"kind": "periodic", "word": w, "phase": k},
              _WORDS, _INDEX),
    st.builds(lambda a, b, c, k: {"kind": "eventually_periodic",
                                  "left_word": a, "core": b, "core_start": k,
                                  "right_word": c},
              _WORDS, _WORDS, _WORDS, _INDEX),
    st.builds(lambda w, k: {"kind": "explicit", "window": w, "start": k,
                            "outside": 4}, _WORDS, _INDEX),
    st.builds(lambda seed, w: {"kind": "random", "seed": seed, "values": w},
              st.integers(0, 2 ** 32), _WORDS))
_CUTOFFS = st.one_of(
    st.builds(lambda a, b: {"kind": "arithmetic", "start": a, "step": b},
              st.integers(1, 16), st.integers(1, 16)),
    st.builds(lambda a, r: {"kind": "geometric", "start": a, "ratio": r},
              st.integers(1, 8), st.sampled_from([1.5, 2.0])),
    st.builds(lambda v: {"kind": "explicit", "values": sorted(v)},
              st.sets(st.integers(1, 64), min_size=1, max_size=4)))
_RHS = st.one_of(
    st.builds(lambda k: {"kind": "delta", "site": k}, st.integers(-3, 3)),
    st.builds(lambda k, v: {"kind": "vector", "start": k, "values": v},
              st.integers(-3, 3),
              st.lists(st.sampled_from([1.0, -0.5, 2]), min_size=1,
                       max_size=3)))


@st.composite
def _fsm_configs(draw):
    side = draw(st.sampled_from(["full_line", "half_line"]))
    cutoffs = {"right": draw(_CUTOFFS)}
    if side == "full_line":
        cutoffs["left"] = draw(_CUTOFFS)
    doc = {"potential": draw(_FSM_POTENTIALS),
           "z": draw(st.sampled_from([0, "1/2", -0.5])),
           "scheme": {"side": side, "cutoffs": cutoffs},
           "count": draw(st.integers(1, 4))}
    if draw(st.booleans()):
        doc["rhs"] = draw(_RHS)
    return "fsm", doc


_BANDS_CONFIGS = st.builds(
    lambda w, k: ("bands", {"potential": {"kind": "periodic", "word": w,
                                          "phase": k}}),
    st.lists(st.sampled_from([0, 1, -2, 3, "1/2", "-3/2"]), min_size=1,
             max_size=4),
    _INDEX)

# keys that may be left out of the top level, a cutoff or rhs document,
# and a potential document
_OPTIONAL_KEYS = {"z", "rhs", "count", "start", "step", "ratio", "site"}
_OPTIONAL_POTENTIAL_KEYS = {"phase", "core", "outside"}
# never a key of the object it is added to: keys of other objects, or none
_FOREIGN_KEYS = ["out", "expect", "exploratory", "phse", "z", "count",
                 "left", "step", "values", "regime"]


def _paths(doc, path=()):
    """(path, value) of every object member and array entry inside doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _paths(value, path + (key,))


def _json_type(v):
    return next(t for t in (bool, dict, list, str, object) if isinstance(v, t))


@st.composite
def _mutated_configs(draw):
    """(command, doc, expected, kind, path) with expected "malformed",
    "well-formed" or None where either is allowed (an integer beyond any
    float), kind the mutation and path the mutated member, an added key
    last (None if the document is unchanged)."""
    command, doc = draw(st.one_of(_fsm_configs(), _BANDS_CONFIGS))
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    kind = draw(st.sampled_from(["none", "drop", "add", "swap", "nan",
                                 "huge"]))
    if kind == "none":
        return command, doc, "well-formed", kind, None
    if kind == "add":
        objects = [((), doc)] + [(p, v) for p, v in paths
                                 if isinstance(v, dict)]
        path, target = draw(st.sampled_from(objects))
        key = draw(st.sampled_from([k for k in _FOREIGN_KEYS
                                    if k not in target]))
        target[key] = 1
        return command, doc, "malformed", kind, path + (key,)
    if kind == "drop":
        path, _ = draw(st.sampled_from(
            [(p, v) for p, v in paths if isinstance(p[-1], str)]))
        parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
        del parent[path[-1]]
        optional = (_OPTIONAL_POTENTIAL_KEYS if path[:-1] == ("potential",)
                    else _OPTIONAL_KEYS)
        return command, doc, ("well-formed" if path[-1] in optional
                              else "malformed"), kind, path
    path, old = draw(st.sampled_from(paths))
    if kind == "swap":
        new = draw(st.sampled_from([v for v in (True, "x", {}, [])
                                    if _json_type(v) != _json_type(old)]))
    else:
        new = float("nan") if kind == "nan" else 10 ** 400
    parent = functools.reduce(lambda d, k: d[k], path[:-1], doc)
    parent[path[-1]] = new
    return (command, doc, None if kind == "huge" else "malformed", kind,
            path)


@given(_mutated_configs())
@settings(max_examples=150, deadline=None)
def test_mutated_configs_keep_the_exit_code_contract(case):
    command, doc, expected, kind, path = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        rc, lines = _run_main([command, "--config", cfg, "--out", out])
        made = os.path.exists(out)
    assert rc in ((0, 1, 3) if expected == "well-formed" else
                  (2,) if expected == "malformed" else (0, 1, 2, 3)), lines
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not (expected == "malformed" and made)
    if kind == "add":
        assert lines == ["error: bad config: unknown key %r" % path[-1]]

    # the library door: potential_from_json refuses exactly the malformed
    # potential documents, an unknown key with the message the CLI prints
    potential = doc.get("potential")
    if not isinstance(potential, dict):
        return
    try:
        schrod1d.potential_from_json(potential)
        refused = None
    except (ValueError, TypeError) as exc:
        refused = str(exc)
    inside = path is not None and path[0] == "potential"
    if expected == "malformed" and inside:
        assert refused is not None
        if kind == "add" and len(path) == 2:
            assert refused == "unknown key %r" % path[-1]
    elif expected is not None or not inside:
        assert refused is None, refused


@pytest.mark.parametrize("p", family_examples())
def test_config_accepts_every_key_to_json_writes(tmp_path, p):
    cfg = write_cfg(tmp_path, "c.json", _fsm_doc(potential=p.to_json()))
    assert cli._read_config(cfg, "fsm")[0] == p


def test_bad_index_field_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", _word([4], phase="x"))
    assert cli.main(["bands", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert "phase must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff,message", [
    ({"start": 4.9}, "cutoff start must be an integer, got 4.9"),
    ({"step": True}, "cutoff step must be an integer, got True"),
    ({"kind": "explicit", "values": [5, 11.5]},
     "explicit cutoff values must be integers, got 11.5")])
def test_bad_int_field_is_named(tmp_path, capsys, cutoff, message):
    cfg = write_cfg(tmp_path, "c.json", _cutoff_doc(**cutoff))
    assert cli.main(["fsm", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_main_builds_one_parser(tmp_path, monkeypatch):
    # the parser is built once per process; the command function is looked
    # up at each call, so a rebound cmd_* still runs
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    cfg = bands_cfg(tmp_path)
    assert _run_main(["bands", "--config", cfg,
                      "--out", str(tmp_path / "a")])[0] == 0
    monkeypatch.setattr(cli, "cmd_bands", lambda args: 7)
    assert _run_main(["bands", "--config", cfg])[0] == 7
    assert built == [1]


def test_bands_builds_one_band_set(tmp_path, monkeypatch):
    # every schrod1d module that binds spectral.bands gets the counting copy
    calls = []
    original = spectral.bands

    def counted(d):
        calls.append(d)
        return original(d)

    for name, mod in list(sys.modules.items()):
        if name.startswith("schrod1d") and \
                getattr(mod, "bands", None) is original:
            monkeypatch.setattr(mod, "bands", counted)
    cfg = bands_cfg(tmp_path, word=(0, 1, 3, 0, 1, 3))
    assert cli.main(["bands", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# sha256 of artifacts that depend on exact arithmetic only; any change to
# these bytes is a change of behaviour, not a refactor
ARTIFACT_DIGESTS = {
    ("1/2", 2, "1/2"): {
        "bands.json": "073e3d29c0eb8ed6f4d74b3351905971"
                      "e55bb460b3553066a98f1fd027642837",
        "dirichlet.json": "a2310b2596b44b3c8c75fab197f91da8"
                          "a1699284c25123e825e3114289a99967",
        "bands.csv": "b94dc1a28a6906f891d826329ac6af51"
                     "9108802d7a1658cf099139eada39576c",
    },
    (2, -1, 3): {
        "bands.json": "23515e7952689aea0578eaad2da613d2"
                      "6cc3932e5c107c98a8c5b60835cb9e92",
        "dirichlet.json": "bbefc6c5ec3ea5acdb8639b914e82c63"
                          "2c1d307df9f339cca94ac57a3c5b5999",
        "bands.csv": "0e2fb748ebcafdad612f8bbf676a641e"
                     "0e59688d172b194c5be2f99718b3eb27",
    },
    # irrational kept eigenvalue, irrational rejected root and closed-gap
    # roots of m12 with |m22| = 1 (the word is (0, 1, 3) twice)
    (0, 1, 3, 0, 1, 3): {
        "bands.json": "23997a2615964c6b03755acb3b07d00a"
                      "478f822f926985ce16aaeebf2f8f7446",
        "dirichlet.json": "fb26866198808972c5eb62476ee1ed18"
                          "2dfd55a9ba68b76b21d45858a96f0377",
        "bands.csv": "03cc201e07a0bb40d888d6e7ae07e60d"
                     "0163b166fcedfaacfb14e1efd90e5bd8",
    },
    # an exact root of m12 at a closed gap (z = 0), and roots at a band
    # edge (z = 1) and a closed gap (z = 3) that the boundary test rejects
    (1, 2, 1, 2): {
        "bands.json": "0a9dfc9d9624552c4974dd7093eae996"
                      "3aceddf7a8bf5bdb079b9c36103ac389",
        "dirichlet.json": "d7e5b9a2490450813c9833d4412c1d8e"
                          "be2edd14c25c4a7d4f393f32634e96a9",
        "bands.csv": "2dcb6884a6768dd96d4d1563fe32a7b9"
                     "ad713a273d91ef052ecd3e5663ef2d41",
    },
    # the deepest chains and largest coefficients of the benchmark's range:
    # a period-12 integer word and a period-8 p/q word
    (-2, 3, 2, 0, 1, 1, -1, -1, -2, -3, -3, 3): {
        "bands.json": "bceeb1306d6bff9d0d6a6a1cf1c3741d"
                      "c0d9e89653f615e9c1061c4d731280bd",
        "dirichlet.json": "263295505138788c7892c9d08f836478"
                          "4d2b27d852fd08dee8c61fa28ad88232",
        "bands.csv": "c990d714e3ec6a633fff0096692aed98"
                     "befe5e1576d9d6b00286143411a6293c",
    },
    ("5/4", "1/2", 0, 2, "1/3", "-2/3", "-3/2", -1): {
        "bands.json": "140ddb3eebee59d98f354d9a2e0b537c"
                      "cea75cc0b899fb649c7b48619ac73783",
        "dirichlet.json": "61edc40cde3920a71b7b00766abf39a8"
                          "8e0fcac1f95ede25effbed1dd4ea3096",
        "bands.csv": "af6da24ae7386bff562bfbd1c18bc127"
                     "f854308811a2399dd5e63b5245871695",
    },
    # six closed gaps, and six roots of m12 that the boundary test rejects
    (1,) * 7: {
        "bands.json": "c5e81ff1f7f3eef3ed66f6aff29c25e7"
                      "3183fe9dda92b604304c7acf865e1949",
        "dirichlet.json": "fcd698748ce4c7459fd8a8b428f776dc"
                          "f81f89f789606e45c5cd21f5291ad59b",
        "bands.csv": "6e3a79ae880ea7220c59cca5b8e0ecd6"
                     "03deba6c78167a027740331b0fb79255",
    },
    (2, -1) * 4: {
        "bands.json": "cb4a7ba1fc0a701687fe052397247709"
                      "c4cc70191acf4484b6280e261be593d0",
        "dirichlet.json": "05742422a1247ffa8804efd7cbd498b6"
                          "eee694b618cec6a8ee33240bdcaf86df",
        "bands.csv": "4a508a4869a76ef97e7da4e24d0b5cd7"
                     "19fee208406724f155c47522054d3e7f",
    },
}
INTEGER_AVOIDANCE_50_DIGEST = ("81097382d07f368434b692cd09f12062"
                               "1bda87a63dd58cbea6961c911ad19734")
FIBONACCI_PREFIX_DIGEST = ("94ee446f3a52f0be9be27b84cea9e070"
                           "87116b4c104ec1a483ab8ccc046c706a")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("word", sorted(ARTIFACT_DIGESTS, key=str))
def test_bands_artifact_digests(tmp_path, word):
    cfg = bands_cfg(tmp_path, word=word)
    out = tmp_path / "out"
    assert cli.main(["bands", "--config", cfg, "--out", str(out)]) == 0
    for name, digest in ARTIFACT_DIGESTS[word].items():
        assert _sha256(out / name) == digest, name


def test_integer_avoidance_artifact_digest(tmp_path):
    assert cli.main(["reproduce", "integer-avoidance", "--count", "50",
                     "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "integer-avoidance.json") == \
        INTEGER_AVOIDANCE_50_DIGEST


def test_fibonacci_prefix_artifact_digest(tmp_path):
    assert cli.main(["reproduce", "fibonacci-prefix",
                     "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "fibonacci-prefix.json") == \
        FIBONACCI_PREFIX_DIGEST


@pytest.mark.parametrize("trip, word", [
    ("premise", ("1/2", 2, "1/2")), ("band", ("1/2", 2, "1/2")),
    ("shared gap", (1, 0, 2, 0))])
def test_theory_guard_exits_1(tmp_path, capsys, monkeypatch, trip, word):
    # guards that band theory says never fire: disc^2 - 4 with a non-real
    # root, a kept Dirichlet root inside a band, two in one gap
    if trip == "premise":
        monkeypatch.setattr(spectral.pl, "real_root_count_with_multiplicity",
                            lambda c: 0)
    else:
        kind = "band" if trip == "band" else "gap"
        monkeypatch.setattr(spectral.BandSet, "locate",
                            lambda self, z: {"kind": kind, "index": 0})
    assert cli.main(["bands", "--config", bands_cfg(tmp_path, word),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("error", [spectral.CrossValidationError,
                                   spectral.SpectralStructureError])
def test_failed_internal_check_exits_1(tmp_path, capsys, monkeypatch, error):
    def failing(p):
        raise error("check failed on purpose")
    monkeypatch.setattr(cli, "dirichlet_eigenvalues", failing)
    assert cli.main(["bands", "--config", bands_cfg(tmp_path),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["error: check failed on purpose"]
