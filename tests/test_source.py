"""Checks on the package source itself."""

import ast
from pathlib import Path

import pbwgate


def _assert_lines(source: str) -> list:
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_detector_finds_asserts():
    assert _assert_lines("x = 1\nif x:\n    assert x == 1, 'msg'\n") == [3]
    assert _assert_lines("raise AssertionError('not a statement')\n") == []


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rely on one
    offenders = []
    for path in sorted(Path(pbwgate.__file__).parent.rglob("*.py")):
        offenders += [f"{path.name}:{line}" for line in _assert_lines(path.read_text())]
    assert offenders == []
