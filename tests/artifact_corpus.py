"""Byte-identity corpus: CLI inputs with the digests of what they produce.

artifact_corpus.json lists entries. Each holds a command line (`argv`),
the config it reads (`config`, absent for `reproduce`), and the outcome
recorded from a known-good build: the exit code, the sha256 of stdout
and the sha256 of every file the command writes to its output directory.
The inputs are written out in the file, so a change to an input generator
cannot change what the corpus checks.

The corpus covers the `band-structure` words of seeds 1-3, rounds 0-2, the
`fsm` configs of seed 1, round 0 of `fsm-large` (see bench/workloads.py),
the four reproductions, the `fsm-corpus` job of seed 10, round 27, slot
q3 as an `fsm --expect applicable_observed` run: word (-3, 0, 0), whose
first full-line section [-1, 1] is singular although the FSM applies, and
two `fsm` runs on explicit windows (a half-line one with rational entries
at z = 0, a full-line one with integer entries at z = 1/2), 144 entries in
all.
`bands`, `reproduce example-4-2`, `reproduce fibonacci-prefix` and
`reproduce integer-avoidance` outputs depend on exact arithmetic and Python
floats only; the `fsm` entries and `reproduce example-4-1` also hold LAPACK
floats, so their digests are those of one numpy/scipy build: numpy 2.4.6 and scipy 1.17.1 on x86-64, the versions the
`tests` job of .github/workflows/tests.yml installs.

tests/test_artifact_corpus.py runs those exact-only entries; run every
entry with

    PYTHONPATH=src python tests/artifact_corpus.py

Each FAIL line names the parts of the entry that moved (exit, stdout, each
artifact file), so a deliberate re-pin can say which digests it changes.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from schrod1d import cli

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "artifact_corpus.json")


def load():
    with open(CORPUS_PATH, encoding="ascii") as fh:
        return json.load(fh)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_entry(entry):
    """(exit code, stdout digest, {file name: digest}) of one run of the
    entry's command, in-process through cli.main."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = list(entry["argv"]) + ["--out", out]
        if "config" in entry:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="ascii") as fh:
                json.dump(entry["config"], fh)
            argv += ["--config", path]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        artifacts = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                artifacts[name] = _sha256(fh.read())
    return code, _sha256(stdout.getvalue().encode()), artifacts


def differences(entry, outcome):
    """The parts of an outcome of run_entry that differ from the entry's
    record: "exit", "stdout" and the name of each artifact file whose digest
    moved, marked "(missing)" or "(new)" when only one side has it."""
    code, stdout, artifacts = outcome
    parts = [part for part, got in (("exit", code), ("stdout", stdout))
             if got != entry[part]]
    recorded = entry["artifacts"]
    for name in sorted(set(recorded) | set(artifacts)):
        if name not in artifacts:
            parts.append(name + " (missing)")
        elif name not in recorded:
            parts.append(name + " (new)")
        elif artifacts[name] != recorded[name]:
            parts.append(name)
    return parts


def check_entry(entry):
    """AssertionError naming the entry and the parts that differ unless a
    run reproduces its record."""
    parts = differences(entry, run_entry(entry))
    assert not parts, "%s: %s differ" % (entry["name"], ", ".join(parts))


def main():
    entries = load()
    failed = 0
    for entry in entries:
        try:
            check_entry(entry)
        except AssertionError as exc:
            failed += 1
            print("FAIL %s" % exc)
    print("%d of %d corpus entries reproduced"
          % (len(entries) - failed, len(entries)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
