import pytest

import artifact_corpus

# Every band-structure word and the three reproductions whose outputs depend
# on exact arithmetic and Python floats only, so no numpy or LAPACK build
# changes their bytes; CI runs every entry (python tests/artifact_corpus.py).
SLICE = ("bands/", "reproduce/example-4-2", "reproduce/fibonacci-prefix",
         "reproduce/integer-avoidance")


@pytest.mark.parametrize(
    "entry", [pytest.param(e, id=e["name"]) for e in artifact_corpus.load()
              if e["name"].startswith(SLICE)])
def test_corpus_entry_is_byte_identical(entry):
    artifact_corpus.check_entry(entry)


def test_differences_name_every_part_that_moved():
    entry = {"exit": 0, "stdout": "s", "artifacts": {"a.json": "1",
                                                     "b.csv": "2"}}
    assert artifact_corpus.differences(entry, (0, "s", {"a.json": "1",
                                                        "b.csv": "2"})) == []
    assert artifact_corpus.differences(
        entry, (2, "t", {"a.json": "9", "c.json": "3"})) == [
        "exit", "stdout", "a.json", "b.csv (missing)", "c.json (new)"]
