from dataclasses import dataclass
from fractions import Fraction as F

import pytest

from schrod1d import jsonio


def test_scalar_encodings():
    doc = jsonio.to_jsonable({"a": F(1, 3), "c": [1, 2.5, None, True]})
    assert doc == {"a": "1/3", "c": [1, 2.5, None, True]}


def test_dataclass_encoding():
    @dataclass
    class Pair:
        x: int
        y: F

    assert jsonio.to_jsonable(Pair(1, F(3, 4))) == {"x": 1, "y": "3/4"}


def test_dumps_is_deterministic():
    doc = {"b": 1, "a": [F(1, 2), {"z": 0, "m": 2}]}
    s1 = jsonio.dumps(doc)
    s2 = jsonio.dumps({"a": [F(1, 2), {"m": 2, "z": 0}], "b": 1})
    assert s1 == s2
    assert s1.endswith("\n")
    assert all(ord(ch) < 128 for ch in s1)


def test_unsupported_type_rejected():
    with pytest.raises(TypeError):
        jsonio.to_jsonable(object())


def test_write_json_and_csv(tmp_path):
    path = tmp_path / "x.json"
    jsonio.write_json(str(path), {"k": F(5, 2)})
    assert path.read_text() == '{\n  "k": "5/2"\n}\n'
    csv_path = tmp_path / "x.csv"
    jsonio.write_csv(str(csv_path), ["a", "b"], [(1, None), (2.5, "s")])
    assert csv_path.read_text() == "a,b\n1,\n2.5,s\n"
