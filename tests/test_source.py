"""Checks on the package source itself."""

import ast
from pathlib import Path

import pbwgate


# the rational RREF and the row-tagging solver belong to the reference
# routines of linalg; every production solve goes through Echelon's rows
_REFERENCE_ONLY = {"back_reduce", "LinearSolver"}


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


def _reference_uses(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) in _REFERENCE_ONLY:
            found.append(node.lineno)
    return found


def test_reference_use_detector():
    assert _reference_uses("ech.back_reduce()\n") == [1]
    assert len(_reference_uses("from .linalg import LinearSolver\n")) == 1
    assert _reference_uses("x = LinearSolver(m)\n") == [1]
    assert _reference_uses("ech.solution(3)\n") == []


def test_only_linalg_builds_a_rational_rref():
    offenders = []
    for path in sorted(Path(pbwgate.__file__).parent.rglob("*.py")):
        if path.name != "linalg.py":
            offenders += [f"{path.name}:{line}" for line in _reference_uses(path.read_text())]
    assert offenders == []
