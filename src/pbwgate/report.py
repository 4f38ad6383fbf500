"""Check execution and report emission.

Each command produces records {check, anchor, verdict, ok, witness, millis}.
The anchor names the mathematical statement a check exercises; verdicts are
short human phrases, and ``ok`` says whether the outcome is consistent with
what the theory predicts (a nontrivial obstruction class is a consistent
outcome, not a failure).  Exit code contract: 0 all consistent, 1 an
inconsistency was found (an exception escaping a check counts as one), 2
input error.
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from .cohomology import alpha_cocycle, connecting_cocycle, find_extension, is_trivial
from .engine import (
    AlphaNontrivialError,
    build_filtration,
    dimension_identity_check,
    equivalence_harness,
    f2_class_check,
    level_sequence,
    pbw_splitting_I,
    section_oracle,
    twisted_verdict,
)
from .koszul import bg_conditions, koszul_acyclicity, qa_closed_form
from .lie import quotient_module, validate_lie
from .problem import ProblemError, ProblemFile

COMMANDS = ("validate", "alpha", "extend", "split", "oracle", "twisted", "koszul", "all")

_DEFAULT_DEGREE = {"split": 3, "oracle": 4, "koszul": 4, "twisted": 3}

# the smallest degree cap at which a check tests anything: koszul slices
# start at internal degree 1, the twisted levels at 1, the oracle levels at 2
_MIN_DEGREE = {"koszul": 1, "twisted": 1, "oracle": 2}

# the statement each record's check exercises, by check name
_ANCHORS = {
    "validate": "Lie algebra axioms (antisymmetry and the Jacobi identity)",
    "alpha": "obstruction class of the subalgebra quotient sequence",
    "extend": "first-order extension criterion for the obstruction class",
    "split": "explicit splitting via symmetrization and the adjunction maps",
    "oracle": "equivalence theorem: class vanishing iff both filtrations split",
    "dimensions": "graded dimension identities of both filtrations",
    "f2-class": "level-two filtration class equals the pushout class",
    "koszul": "quadratic straightening conditions and bounded Koszul exactness",
    "twisted": "module-twisted equivalence theorem",
}


@dataclass
class CheckRecord:
    check: str
    anchor: str
    verdict: str
    ok: bool
    witness: dict
    millis: int

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "ok": self.ok,
            "witness": self.witness,
            "millis": self.millis,
        }


@dataclass
class Report:
    problem: str
    records: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        return {"problem": self.problem, "ok": self.ok, "records": [r.to_dict() for r in self.records]}

    def human(self) -> str:
        lines = [f"problem: {self.problem}"]
        for r in self.records:
            mark = "ok " if r.ok else "FAIL"
            lines.append(f"  [{mark}] {r.check}: {r.verdict} ({r.millis} ms)")
        lines.append("result: " + ("consistent" if self.ok else "INCONSISTENT"))
        return "\n".join(lines)


def _matrix_strings(m) -> list:
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _record(check, started, verdict, ok, witness) -> CheckRecord:
    millis = int((time.perf_counter() - started) * 1000)
    return CheckRecord(check, _ANCHORS[check], verdict, ok, witness, millis)


def _contained(check: str, run) -> list:
    """The records of one check.  An exception escaping it, other than an
    input error, is a broken invariant: it becomes a FAIL record whose
    witness names the exception, so the run still reports and exits 1."""
    started = time.perf_counter()
    try:
        out = run()
    except ProblemError:
        raise
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        witness = {
            "exception": type(exc).__name__,
            "message": str(exc),
            "raised_at": f"{frame.name} ({os.path.basename(frame.filename)}:{frame.lineno})",
        }
        return [_record(check, started, f"check raised {type(exc).__name__}", False, witness)]
    return out if isinstance(out, list) else [out]


def _level2_splits(pair) -> bool:
    """Oracle verdict on the reduced free-side level-two sequence, the first
    level that carries the obstruction class: it splits iff the class is
    trivial."""
    return section_oracle(level_sequence(build_filtration(pair, "F", 2), 2, reduced=True)) is not None


def _check_validate(pf: ProblemFile) -> CheckRecord:
    started = time.perf_counter()
    alg = pf.algebra()
    rep = validate_lie(alg)
    issues = [
        {"kind": issue.kind, "indices": list(issue.indices), "defect": {str(k): str(v) for k, v in issue.defect.items()}}
        for issue in rep.issues
    ]
    witness = {"issues": issues, "expected_invalid": pf.expect_invalid}
    if rep.ok:
        verdict = "valid Lie algebra and subalgebra"
    else:
        verdict = f"{len(issues)} axiom violation(s) found"
    ok = rep.ok == (not pf.expect_invalid)
    if pf.expect_invalid and not rep.ok:
        verdict += " (expected for this negative control)"
    return _record("validate", started, verdict, ok, witness)


def _check_alpha(pf: ProblemFile, pair) -> CheckRecord:
    started = time.perf_counter()
    n_mod = quotient_module(pair)
    c = connecting_cocycle(pair)
    a = alpha_cocycle(pair, n_mod)
    triv = is_trivial(pair, n_mod, a)
    dn, dh = pair.dim_n, pair.dim_h
    h_labels = pair.h.labels
    n_labels = pair.n_labels
    c_witness = {}
    for z in range(dh):
        per = {}
        for r in range(dn):
            per[n_labels[r]] = {h_labels[i]: str(c.values.entry(i * dn + r, z)) for i in range(dh)}
        c_witness[h_labels[z]] = per
    a_witness = {}
    for z in range(dh):
        per = {}
        for r in range(dn):
            for s in range(dn):
                key = f"{n_labels[r]}*{n_labels[s]}"
                col = r * dn + s
                per[key] = {n_labels[i]: str(a.values.entry(i * dn * dn + col, z)) for i in range(dn)}
        a_witness[h_labels[z]] = per
    witness = {"c": c_witness, "a": a_witness, "alpha_trivial": triv is not None}
    if triv is not None:
        witness["primitive"] = _matrix_strings(triv.values)
    verdict = "obstruction class trivial" if triv is not None else "obstruction class non-trivial"
    # the independent leg: the oracle, which knows nothing of cochains
    level2_splits = _level2_splits(pair)
    agree = level2_splits == (triv is not None)
    if not agree:
        witness["level2_splits"] = level2_splits
        verdict += "; DISAGREES with the level-two oracle"
    return _record("alpha", started, verdict, agree, witness)


def _check_extend(pf: ProblemFile, pair) -> CheckRecord:
    started = time.perf_counter()
    n_mod = quotient_module(pair)
    datum = find_extension(pair, n_mod)
    triv = is_trivial(pair, n_mod)
    agree = (datum is None) == (triv is None)
    witness = {
        "extension_exists": datum is not None,
        "alpha_trivial": triv is not None,
        "criterion_agrees": agree,
    }
    if datum is not None:
        letters = list(pair.n_labels) + [f"i({l})" for l in pair.h.labels]
        witness["rho"] = {letters[u]: _matrix_strings(datum.rho[u]) for u in range(pair.g.dim)}
    if datum is not None:
        verdict = "module extends to the first-order neighborhood"
    else:
        verdict = "no extension (obstruction class non-trivial)"
    if not agree:
        verdict += "; DISAGREES with direct class computation"
    return _record("extend", started, verdict, agree, witness)


def _check_split(pf: ProblemFile, pair, K: int) -> CheckRecord:
    started = time.perf_counter()
    n_mod = quotient_module(pair)
    try:
        maps = pbw_splitting_I(pair, None, K)
    except AlphaNontrivialError:
        level2_split = _level2_splits(pair)
        witness = {"alpha_trivial": False, "level2_splits": level2_split}
        ok = not level2_split
        verdict = "no splitting constructed (obstruction class non-trivial)"
        if level2_split:
            verdict += "; INCONSISTENT: level-two sequence split anyway"
        return _record("split", started, verdict, ok, witness)
    r_filt = build_filtration(pair, "R", K)
    witness = {
        "alpha_trivial": True,
        "levels": {str(k): _matrix_strings(m.matrix) for k, m in enumerate(maps)},
        "target_dims": {str(k): r_filt.dim(k) for k in range(K + 1)},
        "rho": {str(u): _matrix_strings(maps[0].rho.rho[u]) for u in range(pair.dim_n)},
    }
    verdict = f"equivariant sections built for degrees 0..{K}"
    return _record("split", started, verdict, True, witness)


def _check_oracle(pf: ProblemFile, pair, K: int) -> list:
    records = []
    started = time.perf_counter()
    rep = equivalence_harness(pair, K=K)
    witness = {
        "alpha_trivial": rep.alpha_trivial,
        "free_side_levels": {str(k): v for k, v in rep.f_levels.items()},
        "straightened_side_levels": {str(k): v for k, v in rep.r_levels.items()},
    }
    verdict = (
        "all level verdicts match the class"
        if rep.ok
        else "level verdicts DISAGREE with the class"
    )
    records.append(_record("oracle", started, verdict, rep.ok, witness))

    started = time.perf_counter()
    dims_ok = True
    dim_witness = {}
    for side in ("F", "R"):
        rep2 = dimension_identity_check(pair, side, K)
        dims_ok = dims_ok and rep2.ok
        dim_witness[side] = {
            "expected": rep2.expected,
            "normal_forms": rep2.normal_form_counts,
            "rank_codimensions": rep2.rank_codims,
        }
    verdict = "dimension identities hold" if dims_ok else "dimension identity MISMATCH"
    records.append(_record("dimensions", started, verdict, dims_ok, dim_witness))

    started = time.perf_counter()
    f2 = f2_class_check(pair)
    witness = {
        "well_defined": f2.well_defined,
        "squares_commute": f2.squares_commute,
        "equivariant": f2.equivariant,
        "bijective": f2.bijective,
        "pushout_splits": f2.q_splits,
        "level2_splits": f2.f2_splits,
        "alpha_trivial": f2.alpha_trivial,
    }
    verdict = "pushout and level-two sequences agree" if f2.ok else "level-two comparison FAILED"
    records.append(_record("f2-class", started, verdict, f2.ok, witness))
    return records


def _check_koszul(pf: ProblemFile, pair, K: int) -> CheckRecord:
    started = time.perf_counter()
    cond1, cond2 = bg_conditions(pair)
    expect_cond2 = not pf.expect_invalid
    kz = koszul_acyclicity(pair, K)
    qa_ok = True
    qa_witness = {}
    for k in range(K + 1):
        got = kz.qa_dims[k]
        want = qa_closed_form(pair, k)
        qa_witness[str(k)] = {"rank": got, "closed_form": want}
        qa_ok = qa_ok and got == want
    witness = {
        "straightening_conditions": [cond1, cond2],
        "graded_dimensions": qa_witness,
        "ktilde_dims_ok": kz.ktilde_dims_ok,
        "containment_ok": kz.containment_ok,
        "slices": [
            {
                "internal_degree": s.internal_degree,
                "dims": s.dims,
                "exact": {str(k): v for k, v in s.exact.items()},
                "dd_zero": s.dd_zero,
                "rightmost_homology": s.rightmost_homology,
            }
            for s in kz.slices
        ],
    }
    ok = cond1 and (cond2 == expect_cond2) and qa_ok and kz.ok
    if pf.expect_invalid:
        verdict = (
            "second straightening condition fails (expected for this negative control)"
            if not cond2
            else "negative control UNEXPECTEDLY satisfies both conditions"
        )
    else:
        verdict = "quadratic conditions hold, slices exact" if ok else "quadratic-algebra check FAILED"
    return _record("koszul", started, verdict, ok, witness)


def _check_twisted(pf: ProblemFile, pair, K: int, module_name: str) -> CheckRecord:
    started = time.perf_counter()
    coeff = pf.module(pair, module_name)
    rep = twisted_verdict(pair, coeff, K)
    witness = {
        "module": module_name,
        "alpha_trivial": rep.alpha_trivial,
        "alpha_module_trivial": rep.alpha_v_trivial,
        "free_side_levels": {str(k): v for k, v in rep.f_levels.items()},
        "straightened_side_levels": {str(k): v for k, v in rep.r_levels.items()},
        "conclusive": rep.conclusive,
    }
    if rep.predicted_split:
        verdict = "both classes trivial and every level splits" if rep.ok else "classes trivial but a level FAILED to split"
    else:
        verdict = (
            "a class is non-trivial and a non-split level was found"
            if rep.ok
            else "a class is non-trivial but no failing level within the degree cap"
        )
    return _record("twisted", started, verdict, rep.ok, witness)


def run_command(
    command: str,
    problem: ProblemFile,
    max_degree: Optional[int] = None,
    module: Optional[str] = None,
) -> Report:
    """Dispatch a CLI command to the underlying checks."""
    if command not in COMMANDS:
        raise ProblemError("command", f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    if command == "twisted" and module is None:
        raise ProblemError("command", "the twisted check needs --module NAME")

    def degree(check: str) -> int:
        return max_degree if max_degree is not None else _DEFAULT_DEGREE[check]

    if command != "all":
        checks = (command,)
    elif problem.expect_invalid:
        checks = ("validate", "koszul")
    else:
        checks = ("validate", "alpha", "extend", "split", "oracle", "koszul", "twisted")
    for check in checks:
        least = _MIN_DEGREE.get(check)
        if least is not None and degree(check) < least:
            raise ProblemError("--max-degree", f"the {check} check needs a degree cap of at least {least}")
    lie_pair = functools.cache(problem.pair)
    records = []

    def run(check: str, fn, *args) -> None:
        records.extend(_contained(check, lambda: fn(problem, lie_pair(), *args)))

    for check in checks:
        if check == "validate":
            records.extend(_contained("validate", lambda: _check_validate(problem)))
        elif check == "alpha":
            run("alpha", _check_alpha)
        elif check == "extend":
            run("extend", _check_extend)
        elif check == "split":
            run("split", _check_split, degree("split"))
        elif check == "oracle":
            run("oracle", _check_oracle, degree("oracle"))
        elif check == "koszul":
            run("koszul", _check_koszul, degree("koszul"))
        else:
            for name in (module,) if module is not None else ("n", "trivial"):
                run("twisted", _check_twisted, degree("twisted"), name)
    return Report(problem.name, records)
