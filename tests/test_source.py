"""Properties of the library's source text."""

import ast
import pathlib

import hypergroups


def test_no_assert_statements_in_library():
    # cross-checks live in the tests: python -O strips asserts, and
    # otherwise every call pays for them
    found = []
    for path in sorted(pathlib.Path(hypergroups.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
