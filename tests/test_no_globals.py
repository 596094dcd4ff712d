"""No module keeps state that a query could write: every answer is a
function of its inputs, so no ``global`` statement may appear."""

import ast
from pathlib import Path

import digraphsub

SOURCES = sorted(Path(digraphsub.__file__).parent.glob("*.py"))


def test_no_global_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Global)
    ]
    assert len(SOURCES) > 10
    assert found == []
