#!/usr/bin/env python3
"""Run the Tier-1 suite, and check that each `raise` statement in src/timbrecolor is needed.

Usage:
    python scripts/check_raises.py [PYTEST_ARGS...]

This is CI's one Tier-1 step: it gives the suite's verdict and the raises'
in one traced run.  It runs tests/ in this process, under pyproject.toml's
pytest settings (every warning an error), with a line tracer that records
only frames of src/timbrecolor, in the main thread and in every thread
started after it (threading.settrace).  Each `raise` statement is found with
ast; a test executes it when a line it spans ran during that test's setup,
call or teardown.  Code run in a subprocess, such as `python -m timbrecolor`,
is not traced.

Then each raise is mutated: in a fresh temporary copy of src/, tests/,
scripts/, perfbench/ and pyproject.toml, that one statement becomes `pass`,
and `python -B -m pytest -x` runs only the tests that executed it, at most
two mutants at a time.  A mutant is killed when pytest reports failed tests or
errors (status 1 or 2), or runs longer than MUTANT_TIMEOUT_S.  A survivor,
including a raise that no test executes, is run once more against the whole
suite before it is reported.

Every argument goes to the traced run's pytest, after the defaults (-q,
-p no:cacheprovider, so no cache is written into the tree); CI passes
--continue-on-collection-errors.  Exit status 0 when the suite passes and
every raise is killed; pytest's own status when the suite fails, before any
mutant is run; otherwise 1, naming each raise that survives the whole suite.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "timbrecolor"
TREE = ("src", "tests", "scripts", "perfbench", "pyproject.toml")  # same_outputs.py imports perfbench
MUTANT_TIMEOUT_S = 300  # a mutant that hangs a test counts as noticed
sys.path.insert(0, str(ROOT / "src"))

executed: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _span(path: Path, node: ast.Raise) -> set[tuple[str, int]]:
    return {(str(path), line) for line in range(node.lineno, node.end_lineno + 1)}


class _RaisesByTest:
    """pytest plugin: the raise lines each test executed, by node id."""

    def __init__(self, raise_lines: set[tuple[str, int]]):
        self.raise_lines = raise_lines
        self.hits: dict[str, set[tuple[str, int]]] = {}

    def pytest_runtest_logstart(self, nodeid, location):
        executed.clear()

    def pytest_runtest_logfinish(self, nodeid, location):
        self.hits[nodeid] = executed & self.raise_lines


def raise_statements() -> list[tuple[Path, ast.Raise]]:
    """Every raise statement of the package, by file and line."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path, node) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return sorted(found, key=lambda item: (item[0], item[1].lineno))


def mutant_source(source: bytes, node: ast.Raise) -> bytes:
    """source with the statement node replaced by `pass` (ast offsets count UTF-8 bytes)."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    lines[first:last + 1] = [lines[first][:node.col_offset] + b"pass" + lines[last][node.end_col_offset:]]
    mutant = b"".join(lines)
    ast.parse(mutant)  # a mutant that did not compile would count as killed
    return mutant


def killed(path: Path, node: ast.Raise, tests: list[str]) -> bool:
    """Whether pytest fails on tests with node mutated to `pass`, in a copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in TREE:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        target = copy / path.relative_to(ROOT)
        target.write_bytes(mutant_source(path.read_bytes(), node))
        try:
            done = subprocess.run(
                [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=MUTANT_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True
        return done.returncode in (1, 2)


def main(argv: list[str]) -> int:
    import pytest

    statements = raise_statements()
    by_test = _RaisesByTest(set().union(*(_span(path, node) for path, node in statements)))
    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv], plugins=[by_test]
        )
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
    tests = [
        [nodeid for nodeid, hits in by_test.hits.items() if hits & _span(path, node)]
        for path, node in statements
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        first = list(pool.map(lambda s, t: bool(t) and killed(*s, t), statements, tests))
        suspects = [i for i, done in enumerate(first) if not done]
        whole = list(pool.map(lambda i: killed(*statements[i], ["tests"]), suspects))
    survivors = [i for i, done in zip(suspects, whole) if not done]
    for i in survivors:
        path, node = statements[i]
        print(f"{path.relative_to(ROOT)}:{node.lineno}: survives the whole suite "
              f"({len(tests[i])} tests execute it): {ast.unparse(node)}")
    reached = sum(1 for t in tests if t)
    total = len(statements)
    print(f"{reached} of {total} raise statements in {PACKAGE.relative_to(ROOT)} executed, "
          f"{total - len(survivors)} of {total} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
