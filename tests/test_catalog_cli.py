import copy
import hashlib
import json
import random
import re
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.cohomology import find_extension
from pbwgate.lie import quotient_module
from pbwgate.linalg import Q
from pbwgate.problem import ProblemError, parse_problem, serialize_problem
from pbwgate.report import run_command
from pbwgate.cli import main

from conftest import SL2_DEGENERATE, sl2_degenerate_document
from test_random_pairs import _conjugate, _random_invertible

EXPECTED_ENTRIES = {
    "sl2-borel",
    "diagonal-sl2",
    "diagonal-heisenberg",
    "abelian-inclusion",
    "semidirect-split",
    "jacobi-broken-negative-control",
}


def test_catalog_contents():
    assert EXPECTED_ENTRIES <= set(catalog_list())


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_get("no-such-pair")


def test_catalog_sl2_borel_matches_golden():
    pf = catalog_get("sl2-borel")
    pair = pf.pair()
    assert pair.complement == (2,)
    n = quotient_module(pair)
    assert not any(n.action[0].data)
    assert n.action[1].entry(0, 0) == Q(-2)


def test_catalog_abelian_everything_splits():
    pf = catalog_get("abelian-inclusion")
    rep = run_command("oracle", pf, max_degree=3)
    assert rep.ok
    assert rep.records[0].witness["alpha_trivial"] is True


def test_catalog_semidirect_c_vanishes():
    from pbwgate.cohomology import connecting_cocycle

    pf = catalog_get("semidirect-split")
    assert not any(connecting_cocycle(pf.pair()).values.data)


@pytest.mark.parametrize("name", sorted(EXPECTED_ENTRIES))
def test_round_trip(name):
    pf = catalog_get(name)
    again = parse_problem(serialize_problem(pf))
    assert again == pf


def test_indices_and_embedding_agree():
    pf = catalog_get("sl2-borel")
    doc = pf.to_dict()
    doc["h"] = {"embedding": [["1", "0", "0"], ["0", "1", "0"]]}
    other = parse_problem(json.dumps(doc))
    p1, p2 = pf.pair(), other.pair()
    assert p1.complement == p2.complement
    assert p1.h_embedding == p2.h_embedding


def test_parse_error_is_located():
    with pytest.raises(ProblemError) as err:
        parse_problem("{\"name\": \"x\", \"g\": {\"dim\": 2, \"brackets\": [[0, 1, [[5, \"1\"]]]]}, \"h\": {\"indices\": [0]}}")
    assert "g.brackets[0]" in str(err.value)


def test_parse_rejects_floats():
    doc = {
        "name": "x",
        "g": {"dim": 2, "brackets": [[0, 1, [[0, 0.5]]]], "labels": ["a", "b"]},
        "h": {"indices": [0]},
    }
    with pytest.raises(ProblemError) as err:
        parse_problem(json.dumps(doc))
    assert "p/q" in str(err.value)


def test_parse_antisymmetry_contradiction_names_pair():
    doc = {
        "name": "bad",
        "g": {
            "dim": 3,
            "labels": ["e", "h", "f"],
            "brackets": [[0, 2, [[1, "1"]]], [2, 0, [[1, "1"]]]],
        },
        "h": {"indices": [0]},
    }
    with pytest.raises(ProblemError) as err:
        parse_problem(json.dumps(doc))
    assert "antisymmetry" in str(err.value)
    assert "(2,0)" in str(err.value).replace(" ", "")


def test_parse_not_subalgebra_is_input_error(tmp_path):
    # the pair is built by the run, before any check: an embedding that is
    # not closed under the bracket is an input error there (exit 2)
    doc = {
        "name": "bad-sub",
        "g": {"dim": 3, "labels": ["e", "h", "f"], "brackets": [[0, 2, [[1, "1"]]], [1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]]]},
        "h": {"indices": [0, 2]},
    }
    problem = parse_problem(json.dumps(doc))
    with pytest.raises(ProblemError) as err:
        problem.pair()
    assert err.value.location == "h"
    with pytest.raises(ProblemError):
        run_command("validate", problem)
    path = tmp_path / "bad-sub.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 2


def test_parse_bad_json_reports_position():
    with pytest.raises(ProblemError) as err:
        parse_problem("{\"name\": }")
    assert "line" in str(err.value)


def test_parse_reads_text_only(tmp_path):
    # the CLI reads --input itself; a path-like string is not a document,
    # even when a problem file exists at that path
    path = tmp_path / "borel.json"
    path.write_text(serialize_problem(catalog_get("sl2-borel")))
    with pytest.raises(ProblemError) as err:
        parse_problem(str(path))
    assert err.value.location == "line 1, column 1"
    assert main(["validate", "--input", str(path)]) == 0


def test_custom_module_roundtrip(tmp_path):
    pf = catalog_get("sl2-borel")
    doc = pf.to_dict()
    doc["modules"] = {
        "V": {"dim": 1, "action": [[["0"]], [["-2"]]]}
    }
    text = json.dumps(doc)
    parsed = parse_problem(text)
    pair = parsed.pair()
    mod = parsed.module(pair, "V")
    assert mod.dim == 1
    assert parse_problem(serialize_problem(parsed)) == parsed


def test_module_must_be_compatible():
    pf = catalog_get("sl2-borel")
    doc = pf.to_dict()
    doc["modules"] = {"V": {"dim": 1, "action": [[["1"]], [["0"]]]}}
    parsed = parse_problem(json.dumps(doc))
    with pytest.raises(ProblemError):
        parsed.module(parsed.pair(), "V")


def test_builtin_modules(sl2_borel):
    pf = catalog_get("sl2-borel")
    pair = pf.pair()
    assert pf.module(pair, "trivial").dim == 1
    assert pf.module(pair, "n").dim == 1
    assert pf.module(pair, "adjoint").dim == 2
    with pytest.raises(ProblemError):
        pf.module(pair, "nonexistent")


# --- CLI ---------------------------------------------------------------------


def test_cli_alpha_json(tmp_path):
    out = tmp_path / "alpha.json"
    code = main(["alpha", "--example", "sl2-borel", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    rec = doc["records"][0]
    assert set(rec) == {"check", "anchor", "verdict", "ok", "witness", "millis"}
    assert rec["anchor"]
    assert rec["witness"]["c"]["e"]["f"]["h"] == "-1"


def test_cli_unknown_example_exits_2(capsys):
    assert main(["alpha", "--example", "nope"]) == 2


def test_cli_twisted_needs_module():
    assert main(["twisted", "--example", "sl2-borel"]) == 2


def test_cli_twisted_with_module():
    assert main(["twisted", "--example", "sl2-borel", "--module", "n", "--max-degree", "2"]) == 0


def test_cli_input_file(tmp_path):
    pf = catalog_get("semidirect-split")
    path = tmp_path / "prob.json"
    path.write_text(serialize_problem(pf))
    assert main(["validate", "--input", str(path)]) == 0


def test_cli_missing_source_exits_2():
    assert main(["alpha"]) == 2


def test_cli_unknown_command_exits_2():
    assert main(["frobnicate", "--example", "sl2-borel"]) == 2


def test_cli_all_catalog_exits_0():
    # degree cap 2 keeps this fast; acceptance runs the full-depth version
    for name in sorted(EXPECTED_ENTRIES):
        assert main(["all", "--example", name, "--max-degree", "2"]) == 0, name


# SHA-256 of the `all --json` report at default caps with every record's
# `millis` removed, written as the CLI writes it (indent 2, final newline).
# A change that alters report bytes on purpose updates these and says why.
REPORT_DIGESTS = {
    "abelian-inclusion": "5ac39c105be5e77d6adf0769a6ccd83a553f9e76d20e258669cd5a01db9e256b",
    "diagonal-heisenberg": "23f34de020ef6993bbed08815615e7609c0f3f785d6754468ac7eb7bba22ab26",
    "diagonal-sl2": "6389467e2c6c64ad249a9cbd0bc3dba3fbe3f4e27b913406d89f22dc455cb6ea",
    "jacobi-broken-negative-control": "c5102cd6adff96721d568ed9b0ecfb62de61eb71d55bba6a9df59f063e2040cb",
    "semidirect-split": "700ba0c447d4ec6a5a54a3fff4ae9394911eee2a977c5490669b7fe2148d4f7b",
    "sl2-borel": "134e6cf4989195e8fd129738f8cffd518f9f5985d2e963ba6cd1b8ff4aa52f6c",
}


# The same digest of the `split` report at K=5 on the four pairs of the
# structure-deep benchmark, and at K=4 on the committed conjugated copy (whose
# datum has scale T > 1); `all` runs `split` only at K=3.
SPLIT_REPORT_DIGESTS = {
    "sl2-borel K=5": "6d3dcf6893c1256769190d6dbe9a8cdd01601f4e624dd1eaa41f8965e9c71c6c",
    "semidirect-split K=5": "c0ccd92d3056cd360cd6d2a9a037d8ade0a5305a236de11151b6d1202d448858",
    "diagonal-heisenberg K=5": "9dd5dc1ac00f74052f4b031e8642d53175d950073630856bc52b182a3c3e2992",
    "diagonal-sl2 K=5": "dda77773923683052bd87db7ad7e678c71404d128bf46d24a4888427be492cea",
    "diagonal-sl2-conjugated-3 K=4": "d1368935df032e7ba38160c67803a5a1417a3e3ce5d28043a71fc2067144154c",
}


# The same digest of the `koszul` report at K=5 on the six catalog pairs, at
# K=4 on the committed conjugated copy, and at K=6 on the sl2-borel documents
# with h = 0 (only d_1, qA = T(g)) and h = g (no n-letter, qA = S(g)); `all`
# runs `koszul` only at K=4. The negative control is the one pair whose second
# straightening condition fails.
KOSZUL_REPORT_DIGESTS = {
    "abelian-inclusion K=5": "25248483b9db6f1f3cc865c98ab83bb00e80530325b01387c6f7ee0718445761",
    "jacobi-broken-negative-control K=5": "2c4ebea00c7305878a46dd3b63fbe95b7e43d41b816e264a35eaf87f81936f9a",
    "sl2-borel K=5": "e6cf2cbd979469a1afa8a94a37d7797e9997d5051f8cb0b49ec59eb2e47da0ed",
    "semidirect-split K=5": "02cb2a168b170c5c2978ad647dd405878e54d10be1be10b9706fec56b4b9a310",
    "diagonal-heisenberg K=5": "d84837f22a9a3b883cedcbe996593d732e1b8144febf4c8c5c073167e9b48f58",
    "diagonal-sl2 K=5": "6b2082b35919fbf33c892f32ae34fa2d92a2dea923d4ec9cca64d4f3b004d7f9",
    "diagonal-sl2-conjugated-3 K=4": "a962da3cf90045a06140a8f9611f08306bc7f691e69e6ffcaea96c98192d3e0c",
    "sl2-degenerate h=0 K=6": "670473088bbbe5caf56e6fad826f2ade37fb43b38134b8f3dd5b3ef1f12069be",
    "sl2-degenerate h=g K=6": "b094db8867f2ce2e3855c32b312fa49698f476abbd8436e47dc93efdf51d2a15",
}


# The same digest of the `oracle` report at K=3 on the committed conjugated
# copy: dense systems whose pivot rows have leads other than 1, so every
# elimination step of the section oracle and the rank checks shows in it.
ORACLE_REPORT_DIGESTS = {
    "diagonal-sl2-conjugated-3 K=3": "47d546d48296f3c46e36f0d524773970a59899fc93d367a615287385ef6fb7ea",
}


# The same digest of the `twisted --module adjoint` report at K=3 on the four
# pairs of the structure-deep benchmark; `all` runs `twisted` only with the
# `n` and `trivial` modules.
TWISTED_REPORT_DIGESTS = {
    "sl2-borel K=3": "298a8a2c5d27e71cef5718bcf7db545a0275f5c3dad0e6150bfaeb1f467fb1e9",
    "semidirect-split K=3": "dce8a2b896d02236d0f3a212d2b7a94e960b2693fd61548c877ec134158d70ac",
    "diagonal-heisenberg K=3": "b0248e99df74d11d25cc5b10e0d314aac40807c7113d5fbf0d53537c06a8c76e",
    "diagonal-sl2 K=3": "87b355a341a09c889bc5e61e2fc37247c629800c1cbeec67921df2702114d3f2",
}


def _millis_free_digest(argv, tmp_path) -> str:
    out = tmp_path / "report.json"
    main(argv + ["--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    for rec in doc["records"]:
        del rec["millis"]
    text = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_all_report_bytes_are_pinned(name, tmp_path):
    assert _millis_free_digest(["all", "--example", name], tmp_path) == REPORT_DIGESTS[name]


def _case_digest(command, case, tmp_path, *options) -> str:
    """The millis-free digest of ``command`` with ``options`` on a
    "<name> K=<cap>" case: a degenerate sl2-borel document, the committed file
    tests/data/<name>.json when there is one, else the example."""
    name, cap = case.split(" K=")
    path = Path(__file__).parent / "data" / f"{name}.json"
    if name in SL2_DEGENERATE:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(sl2_degenerate_document(SL2_DEGENERATE[name])), encoding="utf-8")
    source = ["--input", str(path)] if path.exists() else ["--example", name]
    return _millis_free_digest([command, *source, *options, "--max-degree", cap], tmp_path)


@pytest.mark.parametrize("case", sorted(SPLIT_REPORT_DIGESTS))
def test_split_report_bytes_are_pinned(case, tmp_path):
    assert _case_digest("split", case, tmp_path) == SPLIT_REPORT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(KOSZUL_REPORT_DIGESTS))
def test_koszul_report_bytes_are_pinned(case, tmp_path):
    assert _case_digest("koszul", case, tmp_path) == KOSZUL_REPORT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(ORACLE_REPORT_DIGESTS))
def test_oracle_report_bytes_are_pinned(case, tmp_path):
    assert _case_digest("oracle", case, tmp_path) == ORACLE_REPORT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(TWISTED_REPORT_DIGESTS))
def test_twisted_adjoint_report_bytes_are_pinned(case, tmp_path):
    assert _case_digest("twisted", case, tmp_path, "--module", "adjoint") == TWISTED_REPORT_DIGESTS[case]


def test_report_records_have_anchors():
    for name in ("sl2-borel", "jacobi-broken-negative-control"):
        rep = run_command("all", catalog_get(name), max_degree=2)
        for rec in rep.records:
            assert rec.anchor.strip()


def test_exit_code_contract_inconsistency(monkeypatch):
    # force a falsified invariant: tamper with the harness result
    from pbwgate import report as report_mod

    class FakeRep:
        alpha_trivial = True
        f_levels = {2: False}
        r_levels = {2: True}
        ok = False

    monkeypatch.setattr(report_mod, "equivalence_harness", lambda pair, K: FakeRep())
    rep = run_command("oracle", catalog_get("sl2-borel"), max_degree=2)
    assert rep.exit_code == 1


@pytest.mark.parametrize("indices", [[0, 1, 2], []], ids=["h=g", "h=0"])
def test_all_on_degenerate_subalgebras(indices):
    # h = g leaves n = 0, whose only symmetric monomial is the empty one;
    # h = 0 is the classical PBW theorem, qA = T(g) with no relations
    rep = run_command("all", parse_problem(json.dumps(sl2_degenerate_document(indices))))
    assert [r.check for r in rep.records if not r.ok] == []
    assert rep.exit_code == 0


@pytest.mark.parametrize("command", ["koszul", "all"])
def test_cli_koszul_cap_zero_exits_2(command, capsys):
    assert main([command, "--example", "sl2-borel", "--max-degree", "0"]) == 2
    assert "--max-degree" in capsys.readouterr().err


def test_cli_twisted_cap_zero_exits_2(capsys):
    # a twisted run at cap 0 would check no level and report a failure
    assert main(["twisted", "--example", "sl2-borel", "--module", "n", "--max-degree", "0"]) == 2
    assert "--max-degree" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "all"])
def test_cli_oracle_cap_below_2_exits_2(command, capsys):
    # the oracle levels start at 2: a lower cap would check no level and
    # report that every level verdict matches the class
    for cap in ("0", "1"):
        assert main([command, "--example", "sl2-borel", "--max-degree", cap]) == 2
        assert "the oracle check needs a degree cap of at least 2" in capsys.readouterr().err


def test_all_on_a_negative_control_applies_only_the_koszul_cap():
    # `all` on a negative control runs only the koszul check, whose slices start at 1
    rep = run_command("all", catalog_get("jacobi-broken-negative-control"), max_degree=1)
    assert [r.check for r in rep.records] == ["validate", "koszul"]
    assert rep.exit_code == 0


@pytest.mark.parametrize("error", [KeyError, RuntimeError])
def test_exception_in_a_check_is_a_fail_record(error, monkeypatch, tmp_path):
    # a broken invariant is exit 1 with the report written, never "input
    # error" (exit 2) and never a traceback
    from pbwgate import report as report_mod

    def broken(pair, K):
        raise error("injected fault")

    monkeypatch.setattr(report_mod, "equivalence_harness", broken)
    out = tmp_path / "report.json"
    assert main(["oracle", "--example", "sl2-borel", "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert not data["ok"]
    records = {rec["check"]: rec for rec in data["records"]}
    assert list(records) == ["oracle", "dimensions", "f2-class"]
    rec = records["oracle"]
    assert not rec["ok"] and rec["anchor"].strip()
    assert rec["witness"]["exception"] == error.__name__
    assert "injected fault" in rec["witness"]["message"]
    # the oracle command's other legs are contained apart and still report
    assert records["dimensions"]["ok"] and records["f2-class"]["ok"]
    # the other checks of a run still report
    rep = run_command("all", catalog_get("sl2-borel"), max_degree=2)
    assert [r.check for r in rep.records if not r.ok] == ["oracle"]
    assert "twisted" in [r.check for r in rep.records]


def test_exception_in_the_dimensions_leg_fails_only_that_leg(monkeypatch, tmp_path):
    # the oracle command's three legs are contained one by one: a broken
    # invariant in the dimensions leg leaves the oracle and f2-class records
    from pbwgate import report as report_mod

    def broken(pair, side, K, coeff=None):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(report_mod, "dimension_identity_check", broken)
    out = tmp_path / "report.json"
    assert main(["oracle", "--example", "sl2-borel", "--json", str(out)]) == 1
    oracle, dims, f2 = json.loads(out.read_text())["records"]
    assert (oracle["check"], dims["check"], f2["check"]) == ("oracle", "dimensions", "f2-class")
    assert oracle["ok"] and f2["ok"]
    assert oracle["witness"]["alpha_trivial"] is False
    assert not dims["ok"] and dims["verdict"] == "check raised RuntimeError"
    assert dims["witness"] == {
        "exception": "RuntimeError",
        "message": "injected fault",
        "raised_at": "broken (test_catalog_cli.py)",
    }


def test_raised_at_names_the_function_and_file_only():
    # no line number: an edit above the raising line must not change the
    # bytes of an unchanged verdict
    rep = run_command("split", catalog_get("jacobi-broken-negative-control"))
    [rec] = rep.records
    assert not rec.ok and rec.witness["exception"] == "RewritingInconsistencyError"
    assert re.fullmatch(r"\w+ \(\w+\.py\)", rec.witness["raised_at"])
    assert rec.witness["raised_at"] == "_verify (engine.py)"


def test_twisted_run_with_no_failing_level_within_the_cap_is_cap_limited(tmp_path):
    # sl2-borel's class is non-trivial; with trivial coefficients the first
    # non-split level is 2, so at cap 1 the run is inconclusive, not a failure
    out = tmp_path / "report.json"
    argv = ["twisted", "--example", "sl2-borel", "--module", "trivial", "--max-degree", "1", "--json", str(out)]
    assert main(argv) == 0
    [rec] = json.loads(out.read_text())["records"]
    assert rec["ok"]
    assert "cap-limited" in rec["verdict"]
    assert rec["witness"]["conclusive"] is False
    assert rec["witness"]["alpha_trivial"] is False
    assert rec["witness"]["free_side_levels"] == {"1": True}
    # one level more reaches the failing level: conclusive, not cap-limited
    [rec] = run_command("twisted", catalog_get("sl2-borel"), max_degree=2, module="trivial").records
    assert rec.ok and rec.witness["conclusive"] is True
    assert rec.verdict == "a class is non-trivial and a non-split level was found"


def test_all_solves_each_system_once_per_pair(monkeypatch):
    # oracle verdicts are memoised by the system's entries, the obstruction
    # and the extension by the module's action, all in the pair's caches
    from pbwgate import cohomology as cohomology_mod
    from pbwgate import engine as engine_mod
    from pbwgate import report as report_mod

    counts = Counter()

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        for mod in (cohomology_mod, engine_mod, report_mod):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)

    count(engine_mod, "section_oracle")
    count(cohomology_mod, "alpha_cocycle")
    count(cohomology_mod, "find_extension")
    problem = catalog_get("diagonal-sl2")
    assert run_command("all", problem, max_degree=2).exit_code == 0
    # 7 distinct systems among 13 oracle verdicts (the pushout sequence is
    # the reduced level-two one); the twisted check's module n has the
    # quotient module's action, so classes are built for n and the trivial
    # module only, and split reuses the extension datum of extend
    assert counts == {"section_oracle": 7, "alpha_cocycle": 2, "find_extension": 1}
    # the second run builds its pair afresh, so the caches start cold
    run_command("all", problem, max_degree=2)
    assert counts == {"section_oracle": 14, "alpha_cocycle": 4, "find_extension": 2}


def test_each_run_builds_its_pair_once(monkeypatch):
    # parsing builds no pair; every run builds one, before its first check,
    # and hands that one to all of its checks
    from pbwgate import problem as problem_mod
    from pbwgate import report as report_mod

    built, used = [], []
    real_pair, real_split = problem_mod.make_pair, report_mod._check_split
    monkeypatch.setattr(problem_mod, "make_pair", lambda *args, **kw: built.append(real_pair(*args, **kw)) or built[-1])
    monkeypatch.setattr(report_mod, "_check_split", lambda pf, pair, *rest: used.append(pair) or real_split(pf, pair, *rest))
    problem = catalog_get("sl2-borel")
    assert built == []
    for runs in (1, 2):
        assert run_command("all", problem, max_degree=2).exit_code == 0
        assert len(built) == runs and used[-1] is built[-1] and built[-1]._caches
    assert built[0] is not built[1]


def test_module_needs_one_matrix_per_h_element():
    # an input error, not an exception escaping the twisted check
    doc = catalog_get("sl2-borel").to_dict()
    doc["modules"] = {"V": {"dim": 1, "action": [[["0"]]]}}
    with pytest.raises(ProblemError):
        run_command("twisted", parse_problem(json.dumps(doc)), max_degree=2, module="V")


def test_dimensions_record_fails_on_a_missing_normal_form(monkeypatch):
    # the normal-form counts are the built filtration's basis words, so a
    # filtration missing its last word must turn the record to FAIL
    from pbwgate import engine as engine_mod
    from pbwgate import report as report_mod

    real_build = engine_mod.build_filtration
    real_check = report_mod.dimension_identity_check

    def one_word_short(pair, side, K, coeff=None):
        filt = copy.copy(real_build(pair, side, K, coeff))
        filt._word_offsets = filt._word_offsets[:-1] + [filt._word_offsets[-1] - 1]
        return filt

    def check_on_short_filtration(*args):
        with monkeypatch.context() as m:
            m.setattr(engine_mod, "build_filtration", one_word_short)
            return real_check(*args)

    monkeypatch.setattr(report_mod, "dimension_identity_check", check_on_short_filtration)
    rep = run_command("oracle", catalog_get("sl2-borel"), max_degree=2)
    dims = next(r for r in rep.records if r.check == "dimensions")
    assert not dims.ok
    assert dims.witness["F"]["normal_forms"] == [1, 2, 2]
    assert dims.witness["F"]["expected"] == [1, 2, 3]
    assert rep.exit_code == 1


def test_dimensions_record_fails_when_the_skip_drops_the_wrong_right_factors(monkeypatch, tmp_path):
    # modulo the coefficient relations, a placement w1 r w2 whose right factor
    # ends in an h-letter is redundant and one ending in an n-letter is not:
    # a skip that keeps the first kind and drops the second leaves the
    # degree-3 span short, so the rank codimension exceeds the closed form on
    # both sides, a FAIL record with exit 1
    from pbwgate import engine as engine_mod

    def h_ending(dg, dn, length):
        return [w for w in range(dg ** length) if not length or w % dg >= dn]

    monkeypatch.setattr(engine_mod, "_right_factors", h_ending)
    out = tmp_path / "report.json"
    assert main(["oracle", "--example", "sl2-borel", "--max-degree", "3", "--json", str(out)]) == 1
    oracle, dims, f2 = json.loads(out.read_text())["records"]
    assert oracle["ok"] and f2["ok"]
    assert (dims["check"], dims["ok"], dims["verdict"]) == ("dimensions", False, "dimension identity MISMATCH")
    for side in "FR":
        assert dims["witness"][side]["expected"] == dims["witness"][side]["normal_forms"] == [1, 2, 3, 4]
        assert dims["witness"][side]["rank_codimensions"] == [1, 2, 3, 6]
    for name in ("semidirect-split", "diagonal-heisenberg", "diagonal-sl2"):
        [rec] = [r for r in run_command("oracle", catalog_get(name), max_degree=3).records if r.check == "dimensions"]
        assert not rec.ok
        for side in "FR":
            ranks, expected = rec.witness[side]["rank_codimensions"], rec.witness[side]["expected"]
            assert ranks[:3] == expected[:3] and ranks[3] > expected[3], (name, side)


# --- injected defects in the merged cochain, extension and pushout checks ----


def test_alpha_record_fails_on_a_corrupted_connecting_cochain(monkeypatch):
    from pbwgate import cohomology as cohomology_mod
    from pbwgate import report as report_mod

    real = cohomology_mod.connecting_cocycle

    def corrupted(pair):
        c = real(pair)
        values = copy.deepcopy(c.values)
        values.data[0][0] = values.entry(0, 0) + 1
        return cohomology_mod.Cochain(1, c.module, values)

    monkeypatch.setattr(cohomology_mod, "connecting_cocycle", corrupted)
    monkeypatch.setattr(report_mod, "connecting_cocycle", corrupted)
    rep = run_command("alpha", catalog_get("diagonal-sl2"))
    [rec] = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "AssertionError"
    assert "cocycle identity" in rec.witness["message"]
    assert rep.exit_code == 1


def test_extend_record_fails_on_a_corrupted_extension_solution(monkeypatch):
    # the first solve of the extend check is find_extension's; a wrong
    # solution must be caught by ExtensionDatum.verify
    from pbwgate import cohomology as cohomology_mod

    real = cohomology_mod.solve
    calls = []

    def corrupted(a, b):
        x = real(a, b)
        calls.append(a)
        if len(calls) == 1 and x is not None:
            x = dict(x)
            x[0] = x.get(0, 0) + 1
        return x

    monkeypatch.setattr(cohomology_mod, "solve", corrupted)
    rep = run_command("extend", catalog_get("semidirect-split"))
    [rec] = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "AssertionError"
    assert "invalid datum" in rec.witness["message"]
    assert rep.exit_code == 1


def test_f2_record_fails_on_a_relation_with_a_nonzero_image(monkeypatch):
    # the relation (n_0, 0) maps to the nonzero word (n_0): the level-two map
    # does not descend to the pushout
    from pbwgate import engine as engine_mod

    real = engine_mod.pushout_data

    def with_bad_relation(pair, module):
        data = real(pair, module)
        data.relations.append({0: Q(1)})
        return data

    monkeypatch.setattr(engine_mod, "pushout_data", with_bad_relation)
    rep = run_command("oracle", catalog_get("sl2-borel"), max_degree=2)
    f2 = next(r for r in rep.records if r.check == "f2-class")
    assert not f2.ok
    assert f2.witness["well_defined"] is False
    assert rep.exit_code == 1


def test_alpha_record_fails_on_a_closed_but_wrong_connecting_cochain(monkeypatch):
    # one more unit at values[1][0] leaves the cochain closed but makes the
    # class of sl2-borel trivial; the level-two oracle, which knows nothing
    # of cochains, still sees the non-split sequence
    from pbwgate import cohomology as cohomology_mod
    from pbwgate import report as report_mod

    real = cohomology_mod.connecting_cocycle

    def corrupted(pair):
        c = real(pair)
        values = copy.deepcopy(c.values)
        values.data[1][0] = values.entry(1, 0) + 1
        return cohomology_mod.Cochain(1, c.module, values)

    monkeypatch.setattr(cohomology_mod, "connecting_cocycle", corrupted)
    monkeypatch.setattr(report_mod, "connecting_cocycle", corrupted)
    rep = run_command("alpha", catalog_get("sl2-borel"))
    [rec] = rep.records
    assert rec.witness["alpha_trivial"] is True
    assert rec.witness["level2_splits"] is False
    assert not rec.ok
    assert "DISAGREES" in rec.verdict
    assert rep.exit_code == 1


def test_alpha_record_adds_no_witness_key_when_the_legs_agree():
    for name in ("sl2-borel", "diagonal-sl2"):
        [rec] = run_command("alpha", catalog_get(name)).records
        assert rec.ok
        assert set(rec.witness) <= {"c", "a", "alpha_trivial", "primitive"}


# --- injected defects in the section oracle ----------------------------------


def _oracle_with_solution(monkeypatch, solution):
    """Run every section_oracle call with ``Echelon.solution`` replaced by
    ``solution(real, ech)``; the class routes keep the real one."""
    from pbwgate import engine as engine_mod
    from pbwgate import linalg as linalg_mod

    real_oracle = engine_mod.section_oracle
    real_solution = linalg_mod.Echelon.solution

    def oracle(seq):
        with monkeypatch.context() as m:
            m.setattr(linalg_mod.Echelon, "solution", lambda ech: solution(real_solution, ech))
            return real_oracle(seq)

    monkeypatch.setattr(engine_mod, "section_oracle", oracle)


# diagonal-sl2 in a seeded random basis: every section-oracle system of it has
# a right-hand side, so each one is eliminated and its solution read (in
# catalog coordinates the free-side levels are split in place and solve nothing)
CONJUGATED_DIAGONAL_SL2 = Path(__file__).parent / "data" / "diagonal-sl2-conjugated-3.json"


def test_oracle_record_fails_when_a_consistent_system_reports_no_solution(monkeypatch):
    # the class of diagonal-sl2 is trivial, so every level splits: an
    # elimination that finds no solution turns the level verdicts against it
    _oracle_with_solution(monkeypatch, lambda real, ech: None)
    rep = run_command("oracle", parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")), max_degree=2)
    oracle = next(r for r in rep.records if r.check == "oracle")
    assert not oracle.ok
    assert oracle.witness["alpha_trivial"] is True
    assert oracle.witness["free_side_levels"] == {"2": False}
    assert oracle.witness["straightened_side_levels"] == {"2": False}
    assert "DISAGREE" in oracle.verdict
    assert rep.exit_code == 1


def test_oracle_record_fails_when_a_sequence_is_wrongly_taken_as_split_in_place(monkeypatch):
    # the top-right blocks D_a of sl2-borel's level sequences are non-zero, so
    # the section s = [0; 1] of a faulted predicate is not equivariant
    from pbwgate import engine as engine_mod

    monkeypatch.setattr(engine_mod.ShortExactSequence, "split_in_place", lambda seq: True)
    rep = run_command("oracle", catalog_get("sl2-borel"))
    oracle = next(r for r in rep.records if r.check == "oracle")
    assert not oracle.ok
    assert oracle.witness["exception"] == "AssertionError"
    assert oracle.witness["message"] == "oracle produced a non-equivariant section"
    assert rep.exit_code == 1


def test_oracle_reads_the_top_right_block_of_every_h_element():
    # sl2-borel with its h basis listed toral element first: D_0 is zero on
    # every level and only D_1 is not, so a predicate that stopped at the
    # first element would take these non-split levels as split in place
    rep = run_command("oracle", replace(catalog_get("sl2-borel"), h_indices=(1, 0)))
    oracle = next(r for r in rep.records if r.check == "oracle")
    assert oracle.ok
    assert oracle.witness["free_side_levels"] == {"2": False, "3": False, "4": False}
    assert rep.exit_code == 0


def _solves_per_oracle_call(monkeypatch, problem, max_degree) -> list:
    """Run `oracle` on ``problem`` and return one [level, solves] entry per
    section_oracle call: the (side, k) of the level sequence it was given
    (None for a sequence built elsewhere) and the number of solve calls it
    made."""
    from pbwgate import engine as engine_mod

    real_level_sequence, real_oracle, real_solve = engine_mod.level_sequence, engine_mod.section_oracle, engine_mod.solve
    levels: dict = {}
    calls: list = []

    def level_sequence(filt, k, reduced=False):
        seq = real_level_sequence(filt, k, reduced)
        levels[id(seq)] = (seq, (filt.side, k))
        return seq

    def solve(rows, bcol):
        calls[-1][1] += 1
        return real_solve(rows, bcol)

    def oracle(seq):
        seq_level = levels.get(id(seq))
        calls.append([seq_level[1] if seq_level and seq_level[0] is seq else None, 0])
        with monkeypatch.context() as m:
            m.setattr(engine_mod, "solve", solve)
            return real_oracle(seq)

    monkeypatch.setattr(engine_mod, "level_sequence", level_sequence)
    monkeypatch.setattr(engine_mod, "section_oracle", oracle)
    assert run_command("oracle", problem, max_degree=max_degree).exit_code == 0
    return calls


def test_free_side_levels_of_an_h_stable_complement_solve_nothing(monkeypatch):
    # the n-letters of catalog diagonal-heisenberg span an h-stable complement,
    # so [a, x] has no h-part and every free-side level is split in place
    calls = _solves_per_oracle_call(monkeypatch, catalog_get("diagonal-heisenberg"), 4)
    free = {level[1]: solves for level, solves in calls if level and level[0] == "F"}
    assert free == {2: 0, 3: 0, 4: 0}


def test_every_conjugated_level_sequence_is_solved(monkeypatch):
    # no level of the seeded copy is split in place: each section_oracle call
    # eliminates its system once
    problem = parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8"))
    calls = _solves_per_oracle_call(monkeypatch, problem, 3)
    assert {level for level, _ in calls} >= {("F", 2), ("F", 3), ("R", 2), ("R", 3)}
    assert [solves for _, solves in calls] == [1] * len(calls)


def test_oracle_record_fails_on_a_correction_missing_an_entry(monkeypatch):
    # dropping a nonzero entry of the correction t keeps project . s = id,
    # since t is the top block of s; the equivariance check catches it
    def dropped(real, ech):
        x = real(ech)
        if x:
            x = dict(x)
            del x[min(x)]
        return x

    _oracle_with_solution(monkeypatch, dropped)
    rep = run_command("oracle", catalog_get("diagonal-sl2"), max_degree=2)
    assert [r.check for r in rep.records] == ["oracle", "dimensions", "f2-class"]
    rec, dims, f2 = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "AssertionError"
    assert "non-equivariant" in rec.witness["message"]
    # the dimensions leg builds no section, and the level-two systems of the
    # f2-class leg have the zero correction, so there is no entry to drop
    assert dims.ok and f2.ok
    assert rep.exit_code == 1


def test_twisted_record_fails_when_a_consistent_system_reports_no_solution(monkeypatch, tmp_path):
    # both classes of diagonal-sl2 are trivial, so every twisted level splits:
    # an elimination that finds no solution must turn the record to FAIL
    _oracle_with_solution(monkeypatch, lambda real, ech: None)
    out = tmp_path / "report.json"
    argv = ["twisted", "--input", str(CONJUGATED_DIAGONAL_SL2), "--module", "n", "--max-degree", "2", "--json", str(out)]
    assert main(argv) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert not rec["ok"]
    assert rec["witness"]["alpha_trivial"] is True and rec["witness"]["alpha_module_trivial"] is True
    assert rec["witness"]["free_side_levels"] == {"1": False, "2": False}
    assert rec["verdict"] == "classes trivial but a level FAILED to split"


# --- injected defects in the explicit splitting ------------------------------


def _doubled(real):
    # every straightened term doubled: I_1 = 2 x is still equivariant but no
    # longer a section (I_0 = 1 straightens nothing)
    return lambda pair, word: {w: 2 * c for w, c in real(pair, word).items()}


def _with_constant_term(real):
    # a constant term 1 (D^2 over the word's scale D^2) on the straightened
    # word (0, 0) leaves the top degree, hence the section identity, alone but
    # breaks equivariance
    from pbwgate.engine import _letter_ints

    def straighten(pair, word):
        out = real(pair, word)
        return {**out, (): _letter_ints(pair)[1] ** 2} if word == (0, 0) else out

    return straighten


@pytest.mark.parametrize(
    "target,corrupt,message",
    [
        ("_straightened", _doubled, "I_1 is not a section"),
        ("_straightened", _with_constant_term, "I_2 is not equivariant"),
    ],
    ids=["not-a-section", "not-equivariant"],
)
def test_split_record_fails_on_a_corrupted_splitting_map(target, corrupt, message, monkeypatch):
    _assert_split_fails(catalog_get("diagonal-sl2"), target, corrupt, message, monkeypatch)


def _conjugated_problem(name: str, seed: int):
    """The catalog problem written in a seeded random basis (``_conjugate``),
    as a problem with an embedding; its datum and filtrations carry scales
    above 1."""
    pf = catalog_get(name)
    conj, emb = _conjugate(pf, _random_invertible(random.Random(seed), pf.dim))
    brackets = [
        (i, j, tuple(sorted(conj.table[i][j].items())))
        for i in range(pf.dim)
        for j in range(i + 1, pf.dim)
        if conj.table[i][j]
    ]
    cols = tuple(tuple(emb.entry(r, c) for r in range(emb.rows)) for c in range(emb.cols))
    return replace(pf, name=f"{name}~{seed}", brackets=brackets, h_indices=None, h_embedding=cols, complement=None)


def test_conjugated_problem_carries_scales():
    from pbwgate.engine import _letter_ints

    pair = _conjugated_problem("diagonal-sl2", 3).pair()
    assert _letter_ints(pair)[1] > 1
    assert find_extension(pair, quotient_module(pair)).int_rho[1] > 1
    [rec] = run_command("split", _conjugated_problem("diagonal-sl2", 3), max_degree=2).records
    assert rec.ok


def test_committed_conjugated_problem_is_the_seeded_copy():
    # CI runs `all` on this file under python -O: a problem whose modules
    # carry scales above 1, which no catalog entry has
    path = Path(__file__).parent / "data" / "diagonal-sl2-conjugated-3.json"
    problem = _conjugated_problem("diagonal-sl2", 3)
    assert path.read_text(encoding="utf-8") == serialize_problem(problem) + "\n"
    assert quotient_module(problem.pair()).scale > 1


@pytest.mark.parametrize(
    "target,corrupt,message",
    [
        ("_straightened", _doubled, "I_1 is not a section"),
        ("_straightened", _with_constant_term, "I_2 is not equivariant"),
    ],
    ids=["not-a-section", "not-equivariant"],
)
def test_split_record_fails_on_a_corrupted_splitting_map_in_conjugated_coordinates(
    target, corrupt, message, monkeypatch
):
    _assert_split_fails(_conjugated_problem("diagonal-sl2", 3), target, corrupt, message, monkeypatch)


def test_split_record_reads_no_fraction_normal_form(monkeypatch, tmp_path):
    # the recursion and its checks run in ints: with the Fraction view of the
    # rewriting memo made to raise, the conjugated split at K=4 still passes
    from pbwgate import engine as engine_mod

    def refuse(pair, side, word):
        raise RuntimeError("the split path read a Fraction normal form")

    monkeypatch.setattr(engine_mod, "_normal_form", refuse)
    out = tmp_path / "split.json"
    assert main(["split", "--input", str(CONJUGATED_DIAGONAL_SL2), "--max-degree", "4", "--json", str(out)]) == 0
    [rec] = json.loads(out.read_text())["records"]
    assert rec["ok"] and rec["witness"]["alpha_trivial"] is True


def _wrong_sign(real):
    # nabla_x m entering the recursion with + instead of -
    return lambda cols, x, mono: {m: -c for m, c in real(cols, x, mono).items()}


def _first_factor_only(real):
    # rho(x) applied to the first factor of the monomial only, not as a derivation
    def nabla(cols, x, mono):
        return {tuple(sorted(m + mono[1:])): c for m, c in real(cols, x, mono[:1]).items()}

    return nabla


@pytest.mark.parametrize(
    "corrupt,message",
    [(_wrong_sign, "I_2 is not equivariant"), (_first_factor_only, "I_3 is not equivariant")],
    ids=["wrong-sign", "first-factor-only"],
)
def test_split_record_fails_on_a_corrupted_connection_in_conjugated_coordinates(corrupt, message, monkeypatch):
    # the connection nabla = rho of the recursion I(x m) = ... - I(nabla_x m):
    # catalog coordinates cannot show either fault, because rho is zero on n
    # there and so is every nabla term; a seeded basis change makes it nonzero
    # (the derivation differs from its first-factor term only from k = 3 on)
    from pbwgate import engine as engine_mod

    with monkeypatch.context() as patched:
        patched.setattr(engine_mod, "_nabla", corrupt(engine_mod._nabla))
        [rec] = run_command("split", catalog_get("diagonal-sl2"), max_degree=3).records
        assert rec.ok
    _assert_split_fails(_conjugated_problem("diagonal-sl2", 3), "_nabla", corrupt, message, monkeypatch, max_degree=3)


def _assert_split_fails(problem, target, corrupt, message, monkeypatch, max_degree=2):
    from pbwgate import engine as engine_mod

    monkeypatch.setattr(engine_mod, target, corrupt(getattr(engine_mod, target)))
    rep = run_command("split", problem, max_degree=max_degree)
    [rec] = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "AssertionError"
    assert rec.witness["message"] == message
    assert rep.exit_code == 1


def test_split_record_fails_on_a_corrupted_filtration_action(monkeypatch):
    # one entry of one level action of a conjugated pair moved by one unit of
    # its int form: the int bracket-compatibility check in
    # FilteredModule._verify catches it
    from pbwgate import engine as engine_mod

    real = engine_mod.FilteredModule._action_matrix

    def corrupted(self, a):
        rows = real(self, a)
        if a == 0:
            rows[2][3] = rows[2].get(3, 0) + 1
        return rows

    monkeypatch.setattr(engine_mod.FilteredModule, "_action_matrix", corrupted)
    rep = run_command("split", _conjugated_problem("diagonal-sl2", 3), max_degree=2)
    [rec] = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "RewritingInconsistencyError"
    assert "bracket compatibility" in rec.witness["message"]
    assert rec.witness["raised_at"] == "_verify (engine.py)"
    assert rep.exit_code == 1


@pytest.mark.parametrize("entry", [(0, 1), (1, 0)], ids=["row-0", "column-0"])
def test_split_record_fails_when_the_constant_line_is_not_a_summand(entry, monkeypatch):
    # semidirect-split has a one-dimensional h, so bracket compatibility holds
    # for any level action; one unit at row 0 (or column 0) of its level
    # action ties the constant word to the word (n_0), and only the
    # constant-line check of FilteredModule._verify can catch it
    from pbwgate import engine as engine_mod

    real = engine_mod.FilteredModule._action_matrix

    def corrupted(self, a):
        rows = real(self, a)
        i, j = entry
        rows[i][j] = rows[i].get(j, 0) + 1
        return rows

    monkeypatch.setattr(engine_mod.FilteredModule, "_action_matrix", corrupted)
    rep = run_command("split", catalog_get("semidirect-split"), max_degree=2)
    [rec] = rep.records
    assert not rec.ok
    assert rec.witness["exception"] == "RewritingInconsistencyError"
    assert rec.witness["message"] == "constant line is not a direct summand"
    assert rec.witness["raised_at"] == "_verify (engine.py)"
    assert rep.exit_code == 1


# --- the oracle budget ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["all", "--example", "diagonal-sl2", "--max-degree", "4"],
            "the twisted (module n) check would solve a level-4 section system of 120 x 243 = 29160 unknowns, "
            "over the oracle budget of 10000",
        ),
        (
            ["oracle", "--example", "diagonal-heisenberg", "--max-degree", "5"],
            "the oracle check would solve a level-5 section system of 120 x 243 = 29160 unknowns",
        ),
        (
            ["twisted", "--example", "diagonal-sl2", "--module", "adjoint", "--max-degree", "4"],
            "the twisted (module adjoint) check would solve a level-4 section system of 120 x 243",
        ),
        (
            # dim n = 1 keeps every oracle system tiny; the dimensions leg
            # spans all 3^0 + ... + 3^9 = 29,524 words of degree at most 9
            ["oracle", "--example", "sl2-borel", "--max-degree", "9"],
            "the dimensions check would eliminate over the 29524 words of degree at most 9, "
            "over the oracle budget of 10000",
        ),
        (
            # dim g = 6: 6^0 + ... + 6^6 = 55,987 words of degree at most 6
            ["koszul", "--example", "diagonal-heisenberg", "--max-degree", "6"],
            "the koszul check would eliminate over the 55987 words of degree at most 6, "
            "over the oracle budget of 10000",
        ),
    ],
    ids=["all", "oracle", "twisted", "dimensions", "koszul"],
)
def test_oracle_budget_rejects_a_run_before_any_work(argv, message, capsys, tmp_path):
    out = tmp_path / "report.json"
    started = time.perf_counter()
    assert main(argv + ["--json", str(out)]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert "--max-degree" in err and message in err
    assert not out.exists()


def test_oracle_budget_admits_every_default_run(monkeypatch):
    # the budget is checked before any check runs; with the checks stubbed
    # out, every catalog entry passes it at the default caps (the largest
    # system there has 3,159 unknowns), with each built-in module
    from pbwgate import report as report_mod

    monkeypatch.setattr(report_mod, "_contained", lambda check, run: [])
    for name in catalog_list():
        pf = catalog_get(name)
        assert run_command("all", pf).exit_code == 0, name
        if not pf.expect_invalid:
            for module in ("n", "trivial", "adjoint"):
                assert run_command("twisted", pf, module=module).exit_code == 0, (name, module)
            assert run_command("oracle", pf).exit_code == 0, name
    # one level past the default twisted cap is over the budget on the diagonals
    with pytest.raises(ProblemError, match="29160 unknowns"):
        run_command("twisted", catalog_get("diagonal-heisenberg"), max_degree=4, module="n")


def test_oracle_budget_bounds_the_dimensions_leg(monkeypatch):
    # sl2-borel's oracle systems stay tiny at any cap, so only the word count
    # of the dimensions leg, sum of 3^k for k <= K, meets the budget
    from pbwgate import report as report_mod

    monkeypatch.setattr(report_mod, "_contained", lambda check, run: [])
    pf = catalog_get("sl2-borel")
    assert run_command("oracle", pf, max_degree=8).exit_code == 0  # 9,841 words
    for command in ("oracle", "all"):
        with pytest.raises(ProblemError, match="dimensions check would eliminate over the 29524 words"):
            run_command(command, pf, max_degree=9)


def test_oracle_budget_bounds_the_koszul_check(monkeypatch):
    # the Koszul slices span the words of g of each internal degree, so the
    # same word count, sum of (dim g)^k for k <= K, meets the budget for the
    # koszul command and for all, negative control included
    from pbwgate import report as report_mod

    monkeypatch.setattr(report_mod, "_contained", lambda check, run: [])
    heis, borel = catalog_get("diagonal-heisenberg"), catalog_get("sl2-borel")
    negative = catalog_get("jacobi-broken-negative-control")
    assert run_command("koszul", heis, max_degree=5).exit_code == 0  # 9,331 words
    assert run_command("koszul", borel, max_degree=8).exit_code == 0  # 9,841 words
    for command, pf, K, words in (
        ("koszul", heis, 6, 55987),
        ("koszul", borel, 9, 29524),
        ("all", negative, 9, 29524),
    ):
        with pytest.raises(ProblemError, match=f"koszul check would eliminate over the {words} words"):
            run_command(command, pf, max_degree=K)


# --- injected defects in the Koszul check --------------------------------------


def _koszul_record(tmp_path) -> dict:
    out = tmp_path / "report.json"
    assert main(["koszul", "--example", "diagonal-sl2", "--max-degree", "3", "--json", str(out)]) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert not rec["ok"]
    assert rec["verdict"] == "quadratic-algebra check FAILED"
    return rec["witness"]


def test_koszul_record_fails_when_one_letter_multiplies_wrongly(monkeypatch, tmp_path):
    # the product table sending letter 0 out of degree 0 to letter 1 breaks
    # d o d = 0 in the slices that compose a degree-0 and a degree-1
    # multiplication
    from pbwgate import koszul as koszul_mod

    real = koszul_mod._QaDegrees.__init__

    def misplaced(self, pair, max_degree):
        real(self, pair, max_degree)
        assert self.times[0][0][0] == 0
        self.times[0][0][0] = 1

    monkeypatch.setattr(koszul_mod._QaDegrees, "__init__", misplaced)
    witness = _koszul_record(tmp_path)
    assert [s["dd_zero"] for s in witness["slices"]] == [True, False, False]
    assert witness["containment_ok"] is True


def test_koszul_record_fails_when_the_class_rank_counts_every_join(monkeypatch, tmp_path):
    # a rank that counts every join as a merge, a unit column hitting a row
    # already hit or a binomial closing a cycle included, overstates the
    # ranks of d_1 and d_2, and exactness fails
    from pbwgate import koszul as koszul_mod

    monkeypatch.setattr(koszul_mod, "_class_rank", lambda n, units, binomials: len(units) + len(binomials))
    witness = _koszul_record(tmp_path)
    assert not all(ok for s in witness["slices"] for ok in s["exact"].values())
    assert all(s["dd_zero"] for s in witness["slices"])


def test_koszul_record_fails_on_a_d2_column_that_is_not_a_binomial(monkeypatch, tmp_path):
    # the class rank holds only for columns e_u - e_v: a d_2 template whose
    # omitted second letter keeps the sign + makes every d_2 column e_u + e_v,
    # a FAIL record with exit 1 raised by the rank helper, not a traceback
    from pbwgate import koszul as koszul_mod

    real = koszul_mod._omission_templates

    def unsigned(kt, lower, dg):
        out = real(kt, lower, dg)
        if kt.degree == 2:
            out = [[(a, ta, sa), (x, tx, -sx)] for (a, ta, sa), (x, tx, sx) in out]
        return out

    monkeypatch.setattr(koszul_mod, "_omission_templates", unsigned)
    out = tmp_path / "report.json"
    assert main(["koszul", "--example", "diagonal-sl2", "--max-degree", "3", "--json", str(out)]) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert (rec["ok"], rec["verdict"]) == (False, "check raised AssertionError")
    assert rec["witness"]["raised_at"] == "_class_rank (koszul.py)"
    assert "is not a binomial" in rec["witness"]["message"]


def test_koszul_record_fails_when_one_degree_skips_its_last_relations(monkeypatch, tmp_path):
    # qA_3 built from qA_2 (x) g alone, without the joins of g (x) g (x) qR,
    # is too big: the rank leaves the closed form from degree 3 on
    from pbwgate import koszul as koszul_mod

    real = koszul_mod._QaDegrees._last_relations

    def skipping(self, d, binomials):
        return [] if d == 3 else real(self, d, binomials)

    monkeypatch.setattr(koszul_mod._QaDegrees, "_last_relations", skipping)
    dims = _koszul_record(tmp_path)["graded_dimensions"]
    assert [dims[k]["rank"] == dims[k]["closed_form"] for k in "0123"] == [True, True, True, False]
    assert dims["3"]["rank"] > dims["3"]["closed_form"]


@pytest.mark.parametrize("scale", [-2, 1])
def test_koszul_record_fails_on_a_relation_that_is_not_a_binomial(monkeypatch, tmp_path, scale):
    # the word classes hold only for relations e_u - e_v: a qR basis vector
    # {u: 1, v: -2} or {u: 1, v: 1} is a FAIL record with exit 1, not a
    # traceback, raised by the one helper that reads the binomials
    from pbwgate import koszul as koszul_mod

    def skewed(pair):
        qd = koszul_mod.quadratic_data(pair)
        (u, cu), (v, cv) = qd.basis[0].items()
        return replace(qd, basis=[{u: cu, v: scale * cu}] + qd.basis[1:])

    monkeypatch.setattr(koszul_mod, "_quadratic_data", skewed)
    out = tmp_path / "report.json"
    assert main(["koszul", "--example", "diagonal-sl2", "--max-degree", "3", "--json", str(out)]) == 1
    [rec] = json.loads(out.read_text())["records"]
    assert (rec["ok"], rec["verdict"]) == (False, "check raised AssertionError")
    assert rec["witness"]["raised_at"] == "_binomials (koszul.py)"
    assert "is not a binomial" in rec["witness"]["message"]


def test_koszul_record_fails_when_the_overlap_keeps_the_sign_of_its_right_tags(monkeypatch, tmp_path):
    # the tagged row (0 | y | z) says sum y_j L_j = -sum z_k R_k; reading the
    # right coordinates as +z instead of -z feeds the straightening
    # conditions vectors outside the overlap, and both fail
    from pbwgate import koszul as koszul_mod

    real = koszul_mod._overlap

    def unsigned(qd):
        return [(y, {k: -v for k, v in z.items()}) for y, z in real(qd)]

    monkeypatch.setattr(koszul_mod, "_overlap", unsigned)
    witness = _koszul_record(tmp_path)
    assert witness["straightening_conditions"] == [False, False]
    assert witness["containment_ok"] is True


def test_koszul_record_fails_on_a_wedge_with_one_sign_flipped(monkeypatch, tmp_path):
    # a wedge vector with one flipped sign is no longer antisymmetric, so it
    # leaves the span of the quadratic relations
    from pbwgate import koszul as koszul_mod

    real = koszul_mod._wedge_vector

    def flipped(letters, dg):
        out = real(letters, dg)
        if len(out) > 1:
            out[min(out)] = -out[min(out)]
        return out

    monkeypatch.setattr(koszul_mod, "_wedge_vector", flipped)
    witness = _koszul_record(tmp_path)
    assert witness["containment_ok"] is False
    assert all(s["dd_zero"] for s in witness["slices"])
