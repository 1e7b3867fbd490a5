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
