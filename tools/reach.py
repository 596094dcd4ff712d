"""Line reach of ``src/digraphsub`` under the tier-1 tests, checked
against a ledger of the lines no test reaches.

The script runs the tier-1 suite in this process, without acceptance
criteria 1 and 6 (the two slowest, which reach nothing the rest does
not), under a ``sys.settrace`` line collector limited to the package.
Every executable line that no test reached must be listed in
``tools/unreached.txt`` with a one-line reason.  Entries are keyed by
module, function and the stripped line text, not by line number, so an
edit elsewhere in a file does not move them; a text that occurs twice
unreached in one function is listed twice.  Lines that only run in a
subprocess (``python -O`` checks, CLI runs through ``run_script``) count
as unreached.

Usage, from anywhere::

    python tools/reach.py [extra pytest arguments]

It exits 0 when the ledger matches, 1 when a line is unreached but not
listed, when a listed line is now reached (or gone), or when the suite
itself fails.  Tracing roughly doubles the suite's time, so this is not
a tier-1 test.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "digraphsub"
LEDGER = Path(__file__).resolve().parent / "unreached.txt"
SKIPPED = (
    "tests/test_acceptance.py::test_criterion_1_k3e_exhaustive",
    "tests/test_acceptance.py::test_criterion_6_girth_reduction",
)
SEP = " | "


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> the function that owns it, for every line that
    carries bytecode.  A nested code object's first line (the ``def``
    line, or a comprehension's) is left to its parent, because tracing
    reports it as a call, not a line."""
    owner: dict[int, str] = {}
    todo = [(compile(path.read_text(), str(path), "exec"), True)]
    while todo:
        code, is_module = todo.pop()
        name = "<module>" if is_module else _function_name(code.co_qualname)
        for _, _, line in code.co_lines():
            if line and (is_module or line != code.co_firstlineno):
                # parents are walked first, so the innermost owner wins
                owner[line] = name
        todo.extend((c, False) for c in code.co_consts if hasattr(c, "co_lines"))
    return owner


def _function_name(qualname: str) -> str:
    """The qualified name without its ``<locals>`` and comprehension
    parts: ``f.<locals>.<listcomp>`` is f, ``f.<locals>.g`` is f.g."""
    parts = [p for p in qualname.split(".") if not p.startswith("<")]
    return ".".join(parts) or "<module>"


def trace_suite(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run the suite under the collector; its exit code and the
    (file, line) pairs reached inside the package."""
    import pytest

    prefix = str(PKG) + os.sep
    reached: set[tuple[str, int]] = set()
    add = reached.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    args = ["-q", "-p", "no:cacheprovider"]
    for test in SKIPPED:
        args += ["--deselect", test]
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(args + pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def unreached_lines(reached: set[tuple[str, int]]) -> list[tuple[tuple[str, str, str], int]]:
    """The ledger key (module, function, stripped text) and the line
    number of every unreached line."""
    out = []
    for path in sorted(PKG.glob("*.py")):
        text = path.read_text().splitlines()
        for line, func in sorted(executable_lines(path).items()):
            if (str(path), line) not in reached:
                out.append(((path.name, func, text[line - 1].strip()), line))
    return out


def read_ledger() -> tuple[Counter, list[str]]:
    """The listed entries, and the ledger lines that have no reason."""
    listed: Counter = Counter()
    bad = []
    for raw in LEDGER.read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        module, func, rest = raw.split(SEP, 2)
        text, _, reason = rest.rpartition(SEP)
        if not text or not reason.strip():
            bad.append(raw)
            continue
        listed[(module, func, text)] += 1
    return listed, bad


def main(argv: list[str]) -> int:
    code, reached = trace_suite(argv)
    if code != 0:
        print(f"reach: the test suite failed (pytest exit {code})")
        return 1
    lines = unreached_lines(reached)
    unreached = Counter(key for key, _ in lines)
    listed, bad = read_ledger()
    unlisted = unreached - listed
    now_reached = listed - unreached
    for raw in bad:
        print(f"no reason: {raw}")
    # a key listed fewer times than it is unreached shows its last lines
    left, shown = Counter(unlisted), []
    for key, line in reversed(lines):
        if left[key]:
            left[key] -= 1
            shown.append((key, line))
    for (module, func, text), line in reversed(shown):
        print(f"unreached, not listed ({module}:{line}): {module}{SEP}{func}{SEP}{text}")
    for (module, func, text), count in sorted(now_reached.items()):
        for _ in range(count):
            print(f"listed, but reached or gone: {module}{SEP}{func}{SEP}{text}")
    total = sum(unreached.values())
    print(f"reach: {total} unreached lines, {sum(listed.values())} listed")
    return 1 if unlisted or now_reached or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
