"""Callers catch one base class: every exception the library raises by
name is a ``DigraphError``, never a bare builtin such as ``ValueError``;
and every ``DigraphError`` subclass is raised somewhere, so none is a
name callers guard against in vain."""

import ast
import builtins
import importlib
from pathlib import Path

import digraphsub
from digraphsub import errors
from digraphsub.errors import DigraphError

SOURCES = sorted(Path(digraphsub.__file__).parent.glob("*.py"))


def _raised_names(exc):
    """Class names a ``raise`` expression constructs: ``raise Name(...)``,
    or either branch of ``raise a if cond else Name(...)``."""
    if isinstance(exc, ast.IfExp):
        return _raised_names(exc.body) + _raised_names(exc.orelse)
    if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
        return [exc.func.id]
    return []


def _raise_sites():
    """(path, line, module, class name) for every ``raise Name(...)``."""
    for path in SOURCES:
        module = importlib.import_module(f"digraphsub.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                for name in _raised_names(node.exc):
                    yield path, node.lineno, module, name


def test_every_raise_names_a_digraph_error():
    found, checked = [], 0
    for path, line, module, name in _raise_sites():
        checked += 1
        cls = getattr(module, name, None) or getattr(builtins, name)
        if not (isinstance(cls, type) and issubclass(cls, DigraphError)):
            found.append(f"{path.name}:{line} raises {name}")
    assert len(SOURCES) > 10 and checked > 100
    assert found == []


def test_every_digraph_error_has_a_raise_site():
    declared = {
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, DigraphError) and cls is not DigraphError
    }
    raised = {name for _, _, _, name in _raise_sites()}
    assert len(declared) > 20
    assert sorted(declared - raised) == []
