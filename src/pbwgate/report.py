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

import os
import time

from .cohomology import connecting_cocycle, extension, is_trivial, obstruction
from .engine import (
    AlphaNontrivialError,
    build_filtration,
    dimension_identity_check,
    equivalence_harness,
    f2_class_check,
    level_splits,
    level_system_shape,
    pbw_splitting_I,
    section_oracle,  # noqa: F401  perfbench's tracer test reads report.section_oracle
    twisted_verdict,
)
from .koszul import bg_conditions, koszul_acyclicity, qa_closed_form
from .lie import quotient_module, validate_lie
from .problem import ProblemError, ProblemFile
from .record import Record

COMMANDS = ("validate", "alpha", "extend", "split", "oracle", "twisted", "koszul", "all")

_DEFAULT_DEGREE = {"split": 3, "oracle": 4, "koszul": 4, "twisted": 3}

# the smallest degree cap at which a check tests anything: koszul slices
# start at internal degree 1, the twisted levels at 1, the oracle levels at 2
_MIN_DEGREE = {"koszul": 1, "twisted": 1, "oracle": 2}

# the most unknowns one section-oracle system of a command may have, and the
# most words of g its dimensions or koszul check may span, checked before any
# work; the largest system at the default caps has 3,159 unknowns (the
# level-4 oracle and twisted(n) at K=3 on the six-dimensional diagonals)
ORACLE_BUDGET = 10_000

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


class CheckRecord(Record):
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


class Report(Record):
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
    """The entries of ``m`` as strings, row by row, read from its sparse rows
    ("0" where a row holds no entry)."""
    out = []
    for r in m.data:
        row = ["0"] * m.cols
        for j, v in r.items():
            row[j] = str(v)
        out.append(row)
    return out


def _record(check, verdict, ok, witness) -> CheckRecord:
    return CheckRecord(check, _ANCHORS[check], verdict, ok, witness, 0)


def _contained(check: str, run) -> list:
    """``[record]`` of one check, its ``millis`` the time ``run`` took: the
    only code that reads the clock.  An exception escaping ``run`` is a
    broken invariant, since ``run_command`` raises every input error before
    the first check: it becomes a FAIL record whose witness names the
    exception, so the run still reports and exits 1."""
    started = time.perf_counter()
    try:
        rec = run()
    except Exception as exc:
        import traceback  # only a failing check pays for its import

        frame = traceback.extract_tb(exc.__traceback__)[-1]
        witness = {
            "exception": type(exc).__name__,
            "message": str(exc),
            "raised_at": f"{frame.name} ({os.path.basename(frame.filename)})",
        }
        rec = _record(check, f"check raised {type(exc).__name__}", False, witness)
    rec.millis = int((time.perf_counter() - started) * 1000)
    return [rec]


def _level2_splits(pair) -> bool:
    """Oracle verdict on the reduced free-side level-two sequence, the first
    level that carries the obstruction class: it splits iff the class is
    trivial."""
    return level_splits(build_filtration(pair, "F", 2), 2, reduced=True)


def _check_oracle_budget(problem: ProblemFile, checks: tuple, degree, modules: tuple) -> None:
    """Reject, as an input error, a run whose oracle check, or twisted check
    with one of ``modules``, would build a section system of more than
    ORACLE_BUDGET unknowns, or whose dimensions or koszul check would
    eliminate over more words of g than that.  The sizes come from the closed-form level dimensions; the largest
    system of a check is its free-side one at the cap (each level and the
    free side hold at least as many words as the ones below and the
    straightened side).  The dimensions record eliminates over the words
    that are empty or end in an n-letter, 1 + dim n * sum_{k<K} (dim g)^k of
    them; the koszul check is charged every word of degree at most K."""
    systems = []  # (check, label, coefficient dimension, reduced)
    if "oracle" in checks:
        systems.append(("oracle", "oracle", 1, True))
    for name in modules:
        vdim = problem.module_dim(name)
        if vdim is not None:  # an unknown name is rejected once the pair is built
            systems.append(("twisted", f"twisted (module {name})", vdim, False))
    for check, label, vdim, reduced in systems:
        K = degree(check)
        sub, quot = level_system_shape(problem.module_dim("n"), "F", K, vdim, reduced)
        if sub * quot > ORACLE_BUDGET:
            raise ProblemError(
                "--max-degree",
                f"the {label} check would solve a level-{K} section system of {sub} x {quot} = "
                f"{sub * quot} unknowns, over the oracle budget of {ORACLE_BUDGET}; lower the degree cap",
            )
    if "oracle" in checks:
        K = degree("oracle")
        words = 1 + problem.module_dim("n") * sum(problem.dim ** k for k in range(K))
        if words > ORACLE_BUDGET:
            raise ProblemError(
                "--max-degree",
                f"the dimensions check would eliminate over the {words} words of degree at most {K} that are "
                f"empty or end in an n-letter, over the oracle budget of {ORACLE_BUDGET}; lower the degree cap",
            )
    if "koszul" in checks:
        K = degree("koszul")
        words = sum(problem.dim ** k for k in range(K + 1))
        if words > ORACLE_BUDGET:
            raise ProblemError(
                "--max-degree",
                f"the koszul check would eliminate over the {words} words of degree at most {K}, "
                f"over the oracle budget of {ORACLE_BUDGET}; lower the degree cap",
            )


def _check_validate(pf: ProblemFile) -> CheckRecord:
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
    return _record("validate", verdict, ok, witness)


def _check_alpha(pf: ProblemFile, pair) -> CheckRecord:
    c = connecting_cocycle(pair)
    obs = obstruction(pair, quotient_module(pair))
    a, triv = obs.cocycle, obs.primitive
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
    return _record("alpha", verdict, agree, witness)


def _check_extend(pf: ProblemFile, pair) -> CheckRecord:
    n_mod = quotient_module(pair)
    datum = extension(pair, n_mod)
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
    return _record("extend", verdict, agree, witness)


def _check_split(pf: ProblemFile, pair, K: int) -> CheckRecord:
    try:
        maps = pbw_splitting_I(pair, None, K)
    except AlphaNontrivialError:
        level2_split = _level2_splits(pair)
        witness = {"alpha_trivial": False, "level2_splits": level2_split}
        ok = not level2_split
        verdict = "no splitting constructed (obstruction class non-trivial)"
        if level2_split:
            verdict += "; INCONSISTENT: level-two sequence split anyway"
        return _record("split", verdict, ok, witness)
    r_filt = build_filtration(pair, "R", K)
    rho = extension(pair, quotient_module(pair)).rho  # the memoised datum the sections were built from
    witness = {
        "alpha_trivial": True,
        "levels": {str(k): _matrix_strings(m.matrix) for k, m in enumerate(maps)},
        "target_dims": {str(k): r_filt.dim(k) for k in range(K + 1)},
        "rho": {str(u): _matrix_strings(rho[u]) for u in range(pair.dim_n)},
    }
    verdict = f"equivariant sections built for degrees 0..{K}"
    return _record("split", verdict, True, witness)


def _check_oracle(pf: ProblemFile, pair, K: int) -> CheckRecord:
    rep = equivalence_harness(pair, K=K)
    witness = {
        "alpha_trivial": rep.alpha_trivial,
        "free_side_levels": {str(k): v for k, v in rep.f_levels.items()},
        "straightened_side_levels": {str(k): v for k, v in rep.r_levels.items()},
    }
    verdict = "all level verdicts match the class" if rep.ok else "level verdicts DISAGREE with the class"
    return _record("oracle", verdict, rep.ok, witness)


def _check_dimensions(pf: ProblemFile, pair, K: int) -> CheckRecord:
    dims_ok = True
    dim_witness = {}
    for side in ("F", "R"):
        rep = dimension_identity_check(pair, side, K)
        dims_ok = dims_ok and rep.ok
        dim_witness[side] = {
            "expected": rep.expected,
            "normal_forms": rep.normal_form_counts,
            "rank_codimensions": rep.rank_codims,
        }
    verdict = "dimension identities hold" if dims_ok else "dimension identity MISMATCH"
    return _record("dimensions", verdict, dims_ok, dim_witness)


def _check_f2_class(pf: ProblemFile, pair) -> CheckRecord:
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
    return _record("f2-class", verdict, f2.ok, witness)


def _check_koszul(pf: ProblemFile, pair, K: int) -> CheckRecord:
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
    return _record("koszul", verdict, ok, witness)


def _check_twisted(pf: ProblemFile, pair, K: int, module_name: str, coeff) -> CheckRecord:
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
    elif rep.conclusive:
        verdict = "a class is non-trivial and a non-split level was found"
    else:
        verdict = "a class is non-trivial and no level fails within the degree cap (cap-limited)"
    return _record("twisted", verdict, rep.ok, witness)


def run_command(
    command: str,
    problem: ProblemFile,
    max_degree: int | None = None,
    module: str | None = None,
) -> Report:
    """Dispatch a CLI command to the underlying checks."""
    if command not in COMMANDS:
        raise ProblemError("command", f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    if command == "twisted" and module is None:
        raise ProblemError("command", "the twisted check needs --module NAME")
    if command not in ("twisted", "all") and module is not None:
        raise ProblemError("--module", f"only the twisted and all commands take a module, not {command}")

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
    modules = () if "twisted" not in checks else (module,) if module is not None else ("n", "trivial")
    _check_oracle_budget(problem, checks, degree, modules)
    # the run's one pair, built before any check so that an embedding error
    # is an input error; a later run builds its own, with empty caches.  The
    # twisted check's modules are built here too, so that a bad --module (an
    # unknown name, a wrong matrix count, a bracket-law violation) stops the
    # run before any check does work
    pair = problem.pair()
    coeffs = {name: problem.module(pair, name) for name in modules}
    records = []

    def run(check: str, fn, *args) -> None:
        records.extend(_contained(check, lambda: fn(problem, pair, *args)))

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
            run("dimensions", _check_dimensions, degree("oracle"))
            run("f2-class", _check_f2_class)
        elif check == "koszul":
            run("koszul", _check_koszul, degree("koszul"))
        else:
            for name, coeff in coeffs.items():
                run("twisted", _check_twisted, degree("twisted"), name, coeff)
    return Report(problem.name, records)
