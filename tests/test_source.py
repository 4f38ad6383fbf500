"""Checks on the package source itself."""

import ast
import subprocess
import sys
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
    assert _reference_uses("ech.solution()\n") == []


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


def _named_outside(source: str, names, owner=None) -> list:
    """Lines of ``source`` naming one of ``names`` outside its imports and
    outside the function ``owner``."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.FunctionDef) and node.name == owner
        ):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return sorted({line for line in _named(source, names) if line not in skip})


def _offenders(names, module: str, owner: str) -> list:
    """``file:line`` of each use of ``names`` in the package outside the
    function ``owner`` of ``module``."""
    offenders = []
    for path in sorted(Path(pbwgate.__file__).parent.rglob("*.py")):
        found = _named_outside(path.read_text(), names, owner if path.stem == module else None)
        offenders += [f"{path.name}:{line}" for line in found]
    return offenders


# one way to ask for a verdict: every caller goes through the memoised
# engine.oracle_splits, the only code that calls section_oracle
def _oracle_calls(source: str) -> list:
    return _named_outside(source, {"section_oracle"}, "oracle_splits")


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
    assert _offenders({"section_oracle"}, "engine", "oracle_splits") == []


# one solve: every exact verdict reads its answer from linalg.solve, the only
# code that calls Echelon.solution
def _solution_reads(source: str) -> list:
    return _named_outside(source, {"solution"}, "solve")


def test_solution_read_detector():
    assert _solution_reads("x = ech.solution()\n") == [1]
    assert _solution_reads("read = Echelon.solution\n") == [1]
    assert _solution_reads("def solve(rows, bcol):\n    return ech.solution()\n") == []
    assert _solution_reads("def solution(self):\n    return None\n") == []
    # the oracle's former direct read, put back into the real engine, is caught
    engine = _package_sources()["engine"]
    assert _solution_reads(engine) == []
    assert _solution_reads(engine.replace("sol = solve(_section_rows(seq), nsub * nquot)", "sol = ech.solution()")) != []


def test_only_linalg_solve_reads_an_echelon_solution():
    assert _offenders({"solution"}, "linalg", "solve") == []


# one clock: report._contained stamps every record's millis, and no other code
# reads the time
_CLOCKS = {"time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time", "time_ns"}


def _clock_reads(source: str) -> list:
    return _named_outside(source, _CLOCKS, "_contained")


def test_clock_read_detector():
    assert _clock_reads("import time\nstarted = time.perf_counter()\n") == [2]
    assert _clock_reads("from time import perf_counter\nt = perf_counter()\n") == [2]
    assert _clock_reads("def _contained(check, run):\n    return time.perf_counter()\n") == []
    # a check that times itself again, injected into the real report, is caught
    report = _package_sources()["report"]
    assert _clock_reads(report) == []
    timed = report.replace("    alg = pf.algebra()\n", "    started = time.perf_counter()\n    alg = pf.algebra()\n")
    assert timed != report and len(_clock_reads(timed)) == 1


def test_only_contained_reads_the_clock():
    assert _offenders(_CLOCKS, "report", "_contained") == []


# the quadratic side of the Koszul check has closed forms: koszul names no
# Coordinates, and only koszul_acyclicity, which ranks d_i for i >= 3, builds
# an Echelon
def _koszul_eliminations(source: str) -> list:
    return sorted(set(_named(source, {"Coordinates"}) + _named_outside(source, {"Echelon"}, "koszul_acyclicity")))


def test_koszul_elimination_detector():
    assert _koszul_eliminations("from .linalg import Coordinates\n") == [1]
    assert _koszul_eliminations("span = Echelon(dg * dg)\n") == [1]
    assert _koszul_eliminations("def koszul_acyclicity(pair, K):\n    return Echelon(K)\n") == []
    # the former qR basis by elimination, put back into the real koszul, is caught
    koszul = _package_sources()["koszul"]
    assert _koszul_eliminations(koszul) == []
    old = "    dn, dg = pair.dim_n, pair.g.dim\n    return ["
    eliminated = koszul.replace(old, "    span = Echelon(pair.g.dim ** 2)\n" + old)
    assert eliminated != koszul and len(_koszul_eliminations(eliminated)) == 1
    coords = koszul.replace("from .linalg import Echelon,", "from .linalg import Coordinates, Echelon,")
    assert coords != koszul and len(_koszul_eliminations(coords)) == 1


def test_koszul_eliminates_only_the_higher_differentials():
    assert _koszul_eliminations(_package_sources()["koszul"]) == []


# one clearing helper: linalg._int_rows turns rationals into int forms and
# linalg brings int forms over one scale, so no other module takes a common
# denominator (an lcm call) or reads one (.denominator)
def _clearing_uses(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "denominator":
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lcm":
            found.append(node.lineno)
    return sorted(set(found))


def test_clearing_detector():
    assert _clearing_uses("scale = math.lcm(a, b)\n") == [1]
    assert _clearing_uses("from math import lcm\nscale = lcm(*ds)\n") == [2]
    assert _clearing_uses("d = v.denominator\n") == [1]
    assert _clearing_uses("n = v.numerator\nlcm = 6\nscale = m.scale\n") == []
    # the filtration's former own clearing, put back into the real engine, is caught
    engine = _package_sources()["engine"]
    assert _clearing_uses(engine) == []
    own = engine.replace(
        "self.vdim, self.coeff.scale, ",
        "self.vdim, math.lcm(*(v.denominator for m in self.coeff.action for r in m.data for v in r.values())), ",
    )
    assert own != engine and len(_clearing_uses(own)) == 1


def test_only_linalg_clears_denominators():
    offenders = []
    for mod, text in _package_sources().items():
        if mod != "linalg":
            offenders += [f"{mod}.py:{line}" for line in _clearing_uses(text)]
    assert offenders == []


# every definition in the package is reached from the package itself, so a
# name only tests (or nothing) call cannot sit in src/; a top-level def or
# class counts as reached when it is named (a bare name or an attribute)
# outside its own definition, a method when it is named as an attribute
_UNREACHED_BY_DESIGN = {
    "linalg.rref",  # reference routine, checked against the echelon core
    "linalg.kernel_basis",  # reference routine, likewise
    "koszul.qa_graded_dimension",  # perfbench's tracer spans it as koszul.qa_dim
    "engine.splitting_s",  # the paper's t-map section, the reference the recursion for I_k must equal
    "problem.serialize_problem",  # README's round-trip contract
}


def _definitions(tree):
    """(node, is a method) for each top-level def or class and each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield item, True


def _unreached(sources: dict) -> list:
    """``module.name`` of each definition in ``sources`` (module -> text)
    that no code outside its own definition names."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    uses = {}  # name -> [(module, line, as an attribute)]
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((mod, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((mod, node.lineno, True))
    found = []
    for mod, tree in trees.items():
        for node, method in _definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                (attr or not method) and not (where == mod and line in own)
                for where, line, attr in uses.get(node.name, ())
            ):
                found.append(f"{mod}.{node.name}")
    return sorted(found)


def _package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(Path(pbwgate.__file__).parent.glob("*.py"))}


def test_unreached_detector():
    src = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) + used()\n\n"
        "class C:\n    def __init__(self):\n        self.go()\n\n"
        "    def go(self):\n        return C\n\n"
        "    def named_bare(self):\n        return 0\n\n"
        "print(named_bare)\n"
    )
    assert _unreached({"m": src}) == ["m.C", "m.named_bare", "m.recursive"]
    # a function another module reaches as an attribute is reached
    assert _unreached({"m": "def f():\n    pass\n", "n": "import m\nm.f()\n"}) == []
    # an unreferenced function injected into the real package is caught
    sources = _package_sources()
    sources["engine"] += "\n\ndef _injected_helper(pair):\n    return _normal_form(pair, 'F', ())\n"
    assert "engine._injected_helper" in _unreached(sources)


def test_every_definition_is_reached_from_the_package():
    assert _unreached(_package_sources()) == sorted(_UNREACHED_BY_DESIGN)


# an import the module never names is dead weight (and hides a deleted use)
_UNUSED_BY_DESIGN = {"report.section_oracle"}  # perfbench's tracer test reads it there


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in named)


def test_unused_import_detector():
    assert _unused_imports("from __future__ import annotations\nimport os\nfrom .a import b, c\nc()\n") == ["b", "os"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []
    assert _unused_imports("from .a import b as c\nc\n") == []
    assert _unused_imports("from typing import Optional\ndef f(x: Optional[int]):\n    pass\n") == []


def test_no_unused_imports_in_package():
    found = [f"{mod}.{name}" for mod, text in _package_sources().items() for name in _unused_imports(text)]
    assert sorted(found) == sorted(_UNUSED_BY_DESIGN)


# start-up stays cheap: no package module imports dataclasses (which pulls in
# inspect, ast, dis and tokenize), typing or traceback outside a function body;
# report._contained imports traceback only when a check has raised
_SLOW_IMPORTS = {"dataclasses", "typing", "traceback"}


def _module_level_imports(source: str) -> list:
    tree = ast.parse(source)
    in_functions = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_functions.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if node.lineno not in in_functions and any(name.split(".")[0] in _SLOW_IMPORTS for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_module_level_import_detector():
    assert _module_level_imports("import typing\n") == [1]
    assert _module_level_imports("from dataclasses import dataclass, field\n") == [1]
    assert _module_level_imports("import os, traceback\n") == [1]
    assert _module_level_imports("try:\n    from typing import Optional\nexcept ImportError:\n    pass\n") == [2]
    assert _module_level_imports("from collections.abc import Sequence\nimport os\n") == []
    assert _module_level_imports("def f():\n    import traceback\n    return traceback\n") == []
    # the former module-level traceback import, put back into the real report, is caught
    report = _package_sources()["report"]
    assert _module_level_imports(report) == []
    eager = report.replace("import os\n", "import os\nimport traceback\n", 1)
    assert eager != report and len(_module_level_imports(eager)) == 1


def test_no_module_level_slow_imports_in_package():
    offenders = []
    for mod, text in _package_sources().items():
        offenders += [f"{mod}.py:{line}" for line in _module_level_imports(text)]
    assert offenders == []


def _loaded_by_cli_import(names) -> str:
    """Which of the module ``names`` a clean interpreter (no site packages, no
    environment, this checkout's src/) holds after ``import pbwgate.cli``."""
    src = str(Path(pbwgate.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import pbwgate.cli; "
        f"print(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by_cli_import(("dataclasses", "inspect")) == "[]"


def test_cli_import_leaves_argparse_to_the_parser():
    # cli._build_parser imports argparse, so importing the module alone does not
    assert _loaded_by_cli_import(("argparse",)) == "[]"
