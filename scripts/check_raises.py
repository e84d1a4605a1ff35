#!/usr/bin/env python3
"""Run the Tier-1 suite, and check that it executes every `raise` statement in src/timbrecolor.

Usage:
    python scripts/check_raises.py [PYTEST_ARGS...]

This is CI's one Tier-1 step: it gives the suite's verdict and the raises'
in one run.  It runs tests/ in this process, under pyproject.toml's pytest
settings (every warning an error), with a line tracer that records only
frames of src/timbrecolor, in the main thread and in every thread started
after it (threading.settrace).  Each `raise` statement is found with ast;
it counts as reached when a line it spans was executed.  Code run in a
subprocess, such as `python -m timbrecolor`, is not traced.

Every argument goes to pytest, after the defaults (-q, -p no:cacheprovider,
so no cache is written into the tree); CI passes
--continue-on-collection-errors.  Exit status 0 when the suite passes and
every raise is reached; pytest's own status when the suite fails, before
any raise is checked; otherwise 1, naming each raise that no test executed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timbrecolor"
sys.path.insert(0, str(ROOT / "src"))

executed: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def raise_statements() -> list[tuple[Path, ast.Raise]]:
    """Every raise statement of the package, by file and line."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path, node) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return sorted(found, key=lambda item: (item[0], item[1].lineno))


def main(argv: list[str]) -> int:
    import pytest

    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import timbrecolor

    if Path(timbrecolor.__file__).resolve().parent != PACKAGE:
        print(f"timbrecolor was imported from {timbrecolor.__file__}, not {PACKAGE}")
        return 1
    if status != 0:
        print(f"the suite failed (pytest status {int(status)}); raises not checked")
        return int(status)
    statements = raise_statements()
    missed = [
        (path, node) for path, node in statements
        if not any((str(path), line) in executed for line in range(node.lineno, node.end_lineno + 1))
    ]
    for path, node in missed:
        print(f"{path.relative_to(ROOT)}:{node.lineno}: never executed: {ast.unparse(node)}")
    print(f"{len(statements) - len(missed)} of {len(statements)} raise statements in {PACKAGE.relative_to(ROOT)} reached")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
