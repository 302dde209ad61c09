"""A pytest plugin that fails the session on a statement of twistlink no test ran.

Turn it on for a whole Tier-1 run::

    TWISTLINK_STATEMENT_GATE=1 python -m pytest -q

``tests/conftest.py`` loads this module when that variable is set.  A
``sys.settrace`` hook, set for new threads too, records each line run in a
file of the twistlink package; frames of other files get no line tracer.
Tracing starts when pytest is configured, before any test module imports
twistlink, so module-level statements count.

At the end of the session each statement of the package is checked.  The
statements are the ``ast`` statements that compile to at least one
instruction, so function docstrings and ``global`` lines are not among
them.  A statement ran if a line of its head ran: all of a simple
statement, or a compound statement's lines before its body (a ``def``
line runs when its module is imported).  Any statement that did not run
fails the session, so one that no test can run has to be deleted.

Only the pytest process is traced, so code that runs only in a child
process, such as ``python -m twistlink``, is counted as not run.  The
``coverage`` package is not used.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

_package = Path(importlib.util.find_spec("twistlink").submodule_search_locations[0]).resolve()
_ran: dict[str, set[int]] = {}
_report: list[str] = []
_ours: dict[str, set[int] | None] = {}  # co_filename -> its line set, or None if not ours


def _lines_of(filename: str) -> set[int] | None:
    if filename not in _ours:
        path = Path(filename).resolve()
        ours = path.is_relative_to(_package)
        _ours[filename] = _ran.setdefault(str(path), set()) if ours else None
    return _ours[filename]


def _trace(frame, event, arg):
    lines = _lines_of(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _compiled_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _compiled_lines(const)
    return lines


def _statements(node, compiled: set[int], scope: str = ""):
    """(line, enclosing def or class, head lines) of each statement that compiles to code."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, ast.stmt):
            first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
            body = getattr(child, "body", None)
            last = body[0].lineno - 1 if body else child.end_lineno
            head = set(range(first, last + 1)) & compiled
            if head:
                yield child.lineno, scope, head
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
        yield from _statements(child, compiled, inner)


def unreached() -> list[tuple[str, int, str, str]]:
    """(module file, line, enclosing def or class, first line) of each statement not run."""
    found = []
    for path in sorted(_package.rglob("*.py")):
        ran = _ran.get(str(path), set())
        source = path.read_text()
        text = source.splitlines()
        compiled = _compiled_lines(compile(source, str(path), "exec"))
        for line, scope, head in _statements(ast.parse(source), compiled):
            if not head & ran:
                found.append((path.name, line, scope, text[line - 1].strip()))
    return sorted(found)


def pytest_configure():
    threading.settrace(_trace)
    sys.settrace(_trace)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    _report.extend(
        f"not run by any test: {name}:{line} ({scope or 'module'}): {text}"
        for name, line, scope, text in unreached()
    )
    if _report:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("statement gate")
    for line in _report or ["every statement of twistlink ran"]:
        terminalreporter.write_line(line)
