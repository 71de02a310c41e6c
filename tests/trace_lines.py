"""List the statements of ``src/modelsentry`` that the tier-1 suite never runs.

Run from the repository root:

    python tests/trace_lines.py [pytest arguments]

The suite (``tests/`` unless arguments are given) runs in this process
through ``pytest.main``, with pytest's own output sent to stderr.  A small
plugin arms a ``sys.settrace`` line tracer for the frames of the package at
each test's setup and call, and once before collection so that the imports
are traced too.  A tracer set once may not last the suite: a library may
clear it, and CPython unsets one whose trace function raises, as it may at
the recursion limit.  So it is armed again per test.

Each statement (per ``ast``) on whose lines no line event fired is printed
to stdout as ``file:line source``, then their count.  A compound statement
also counts as run when the first statement of its body ran.  Docstrings,
``global`` and ``nonlocal`` statements and the ``__main__`` guard do not
count.  Test outcomes are ignored: tracing slows every test, so a test under
a wall-clock alarm may fail.  Only the stdlib and pytest are used.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modelsentry"

_executed: defaultdict[str, set[int]] = defaultdict(set)
_in_package: dict[str, bool] = {}


def _trace_line(frame, event, arg):
    if event == "line":
        _executed[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_call(frame, event, arg):
    filename = frame.f_code.co_filename
    inside = _in_package.get(filename)
    if inside is None:
        inside = _in_package[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
    return _trace_line if inside else None


class _ArmPerTest:
    @pytest.hookimpl(hookwrapper=True, tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_trace_call)
        yield

    @pytest.hookimpl(hookwrapper=True, tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_trace_call)
        yield


def _is_main_guard(node: ast.stmt) -> bool:
    test = getattr(node, "test", None)
    return (
        isinstance(node, ast.If)
        and isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value == "__main__"
    )


def _counted_statements(tree: ast.Module) -> list[ast.stmt]:
    skipped: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            skipped.add(id(body[0]))
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            skipped.add(id(node))
        if _is_main_guard(node):
            skipped.update(id(inner) for inner in ast.walk(node))
    return [
        node for node in ast.walk(tree) if isinstance(node, ast.stmt) and id(node) not in skipped
    ]


def _ran(node: ast.stmt, lines: set[int]) -> bool:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if not body:
        return any(line in lines for line in range(first, node.end_lineno + 1))
    header_end = max(node.lineno, body[0].lineno - 1)
    return any(line in lines for line in range(first, header_end + 1)) or _ran(body[0], lines)


def never_ran() -> list[str]:
    """``file:line source`` for each counted statement that never ran."""
    by_path = {os.path.realpath(name): lines for name, lines in _executed.items()}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        lines = by_path.get(str(path), set())
        missed = {
            node.lineno
            for node in _counted_statements(ast.parse(text))
            if not _ran(node, lines)
        }
        shown = path.relative_to(ROOT).as_posix()
        out.extend(f"{shown}:{n} {source[n - 1].strip()}" for n in sorted(missed))
    return out


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # Tests that start the package in a subprocess find it there too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = ["-q", "--continue-on-collection-errors", *(argv or [str(ROOT / "tests")])]
    sys.settrace(_trace_call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(args, plugins=[_ArmPerTest()])
    finally:
        sys.settrace(None)
    missed = never_ran()
    print("\n".join(missed + [f"{len(missed)} statements never ran"]))
    # Failed tests are expected under tracing; anything else is not.
    return 0 if status in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED) else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
