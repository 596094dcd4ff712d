"""The package keeps one graph type, ``core.Digraph``: any other class
offering ``out_nbrs`` or ``has_arc`` is a further representation to
fold into it."""

import ast
from pathlib import Path

import digraphsub

SOURCES = sorted(Path(digraphsub.__file__).parent.glob("*.py"))

GRAPH_METHODS = {"out_nbrs", "has_arc"}


def test_only_core_graph_types_define_out_nbrs():
    found = {
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name in GRAPH_METHODS for item in node.body)
    }
    assert len(SOURCES) > 10
    assert found == {"core.Digraph"}
