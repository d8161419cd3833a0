import ast
from pathlib import Path

import pytest

import apgf
from apgf.errors import GraphFormatError, ValidationError
from apgf.files import json_value, reading

SRC = Path(apgf.__file__).parent


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "files.py")
)
def test_only_files_py_parses_json(module):
    # every JSON input goes through files.py's one reader and its error rules
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in {("json", "load"), ("json", "loads")}
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and {alias.name for alias in node.names} & {"load", "loads"}
    ]
    assert calls == []


@pytest.mark.parametrize(
    "value, kind, expected",
    [(3, int, 3), (3, float, 3.0), (0.5, float, 0.5), ("a", str, "a"), ([1], list, [1])],
)
def test_json_value_accepts(value, kind, expected):
    got = json_value(value, kind, "x")
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize(
    "value, kind, message",
    [
        (True, int, "x must be an integer, got True"),
        (3.0, int, "x must be an integer, got 3.0"),
        (False, float, "x must be a number, got False"),
        ("1", float, "x must be a number, got '1'"),
        (10**400, float, "x is too large for a float"),
        (None, dict, "x must be an object, got None"),
    ],
)
def test_json_value_refuses(value, kind, message):
    with pytest.raises(ValidationError, match=message):
        json_value(value, kind, "x")


def test_reading_prefixes_the_file_and_keeps_the_class():
    with pytest.raises(GraphFormatError, match="^graph g.json: bad$"):
        with reading("graph", "g.json"):
            raise GraphFormatError("bad")
