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


def _named(source: str, names) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        field = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name"}.get(type(node))
        if field and getattr(node, field) in names:
            found.append(node.lineno)
    return found


def _reference_uses(source: str) -> list:
    return _named(source, _REFERENCE_ONLY)


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


# vectors are sparse dicts everywhere but in linalg's reference routines: no
# module builds a dense zero list or a matrix from dense columns
def _is_zero_list(node) -> bool:
    if not (isinstance(node, ast.List) and len(node.elts) == 1 and isinstance(node.elts[0], ast.Call)):
        return False
    call = node.elts[0]
    return isinstance(call.func, ast.Name) and call.func.id in ("Q", "Fraction") and [
        ast.literal_eval(arg) for arg in call.args
    ] == [0]


def _dense_uses(source: str) -> list:
    found = _named(source, {"from_cols"})
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if _is_zero_list(node.left) or _is_zero_list(node.right):
                found.append(node.lineno)
    return sorted(found)


def test_dense_vector_detector():
    assert _dense_uses("x = [Q(0)] * n\n") == [1]
    assert _dense_uses("x = n * [Fraction(0)]\n") == [1]
    assert _dense_uses("m = Matrix.from_cols(cols, rows=3)\n") == [1]
    assert _dense_uses("from .linalg import from_cols\n") == [1]
    assert _dense_uses("x = [Q(1)] * n\ny = {0: Q(0)}\nz = [Q(0), Q(0)]\n") == []


def test_only_linalg_builds_dense_vectors():
    offenders = []
    for path in sorted(Path(pbwgate.__file__).parent.rglob("*.py")):
        if path.name != "linalg.py":
            offenders += [f"{path.name}:{line}" for line in _dense_uses(path.read_text())]
    assert offenders == []


# one way to ask for a verdict: every caller goes through the memoised
# engine.oracle_splits, the only code that calls section_oracle
def _oracle_calls(source: str) -> list:
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.FunctionDef) and node.name == "oracle_splits"
        ):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return [line for line in _named(source, {"section_oracle"}) if line not in skip]


def test_oracle_call_detector():
    assert _oracle_calls("ok = section_oracle(seq) is not None\n") == [1]
    assert _oracle_calls("s = engine.section_oracle(seq)\n") == [1]
    assert _oracle_calls("verdicts = map(section_oracle, seqs)\n") == [1]
    assert _oracle_calls("from .engine import (\n    section_oracle,\n)\n") == []
    assert _oracle_calls("def section_oracle(seq):\n    return None\n") == []
    helper = "def oracle_splits(pair, seq):\n    return section_oracle(seq) is not None\n"
    assert _oracle_calls(helper) == []
    assert _oracle_calls(helper + "x = section_oracle(seq)\n") == [3]


def test_only_oracle_splits_calls_the_section_oracle():
    offenders = []
    for path in sorted(Path(pbwgate.__file__).parent.rglob("*.py")):
        offenders += [f"{path.name}:{line}" for line in _oracle_calls(path.read_text())]
    assert offenders == []
