import copy
import json

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.lie import quotient_module
from pbwgate.linalg import Q
from pbwgate.problem import ProblemError, parse_problem, serialize_problem
from pbwgate.report import run_command
from pbwgate.cli import main


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
    assert n.action[0].is_zero()
    assert n.action[1].entry(0, 0) == Q(-2)


def test_catalog_abelian_everything_splits():
    pf = catalog_get("abelian-inclusion")
    rep = run_command("oracle", pf, max_degree=3)
    assert rep.ok
    assert rep.records[0].witness["alpha_trivial"] is True


def test_catalog_semidirect_c_vanishes():
    from pbwgate.cohomology import connecting_cocycle

    pf = catalog_get("semidirect-split")
    assert connecting_cocycle(pf.pair()).is_zero()


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


def test_parse_not_subalgebra_is_input_error():
    doc = {
        "name": "bad-sub",
        "g": {"dim": 3, "labels": ["e", "h", "f"], "brackets": [[0, 2, [[1, "1"]]], [1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]]]},
        "h": {"indices": [0, 2]},
    }
    with pytest.raises(ProblemError):
        parse_problem(json.dumps(doc))


def test_parse_bad_json_reports_position():
    with pytest.raises(ProblemError) as err:
        parse_problem("{\"name\": }")
    assert "line" in str(err.value)


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
    doc = catalog_get("sl2-borel").to_dict()
    doc["name"] = "sl2-degenerate"
    doc["h"] = {"indices": indices}
    rep = run_command("all", parse_problem(json.dumps(doc)))
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
    [rec] = data["records"]
    assert rec["check"] == "oracle" and not rec["ok"] and rec["anchor"].strip()
    assert rec["witness"]["exception"] == error.__name__
    assert "injected fault" in rec["witness"]["message"]
    # the other checks of a run still report
    rep = run_command("all", catalog_get("sl2-borel"), max_degree=2)
    assert [r.check for r in rep.records if not r.ok] == ["oracle"]
    assert "twisted" in [r.check for r in rep.records]


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
    ``solution(real, ech, bcol)``; the class routes keep the real one."""
    from pbwgate import engine as engine_mod
    from pbwgate import linalg as linalg_mod

    real_oracle = engine_mod.section_oracle
    real_solution = linalg_mod.Echelon.solution

    def oracle(seq):
        with monkeypatch.context() as m:
            m.setattr(linalg_mod.Echelon, "solution", lambda ech, bcol: solution(real_solution, ech, bcol))
            return real_oracle(seq)

    monkeypatch.setattr(engine_mod, "section_oracle", oracle)


def test_oracle_record_fails_when_a_consistent_system_reports_no_solution(monkeypatch):
    # the class of diagonal-sl2 is trivial, so every level splits: an
    # elimination that finds no solution turns the level verdicts against it
    _oracle_with_solution(monkeypatch, lambda real, ech, bcol: None)
    rep = run_command("oracle", catalog_get("diagonal-sl2"), max_degree=2)
    oracle = next(r for r in rep.records if r.check == "oracle")
    assert not oracle.ok
    assert oracle.witness["alpha_trivial"] is True
    assert oracle.witness["free_side_levels"] == {"2": False}
    assert oracle.witness["straightened_side_levels"] == {"2": False}
    assert "DISAGREE" in oracle.verdict
    assert rep.exit_code == 1


def test_oracle_record_fails_on_a_correction_missing_an_entry(monkeypatch):
    # dropping a nonzero entry of the correction t keeps project . s = id,
    # since t goes through the inclusion; the equivariance check catches it
    def dropped(real, ech, bcol):
        x = real(ech, bcol)
        if x:
            x = dict(x)
            del x[min(x)]
        return x

    _oracle_with_solution(monkeypatch, dropped)
    rep = run_command("oracle", catalog_get("diagonal-sl2"), max_degree=2)
    [rec] = rep.records
    assert rec.check == "oracle" and not rec.ok
    assert rec.witness["exception"] == "AssertionError"
    assert "non-equivariant" in rec.witness["message"]
    assert rep.exit_code == 1
