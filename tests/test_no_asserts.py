"""The library's self-checks must survive ``python -O``, which strips
every ``assert``: each one is an explicit ``InvariantViolation`` raise."""

import ast
from pathlib import Path

import digraphsub

SOURCES = sorted(Path(digraphsub.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []
