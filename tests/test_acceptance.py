"""Acceptance suite: one test per gate criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  All equality assertions are exact; there are no tolerances anywhere.
"""

import itertools
import json
import math
import time
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.cli import main
from pbwgate.cohomology import (
    alpha_cocycle,
    connecting_cocycle,
    find_extension,
    is_trivial,
)
from pbwgate.engine import (
    build_filtration,
    dimension_identity_check,
    equivalence_harness,
    pbw_splitting_I,
    splitting_s,
    twisted_verdict,
)
from pbwgate.koszul import bg_conditions, koszul_acyclicity, qa_closed_form, qa_graded_dimension
from pbwgate.lie import (
    hom_module,
    make_pair,
    quotient_module,
    tensor_module,
    trivial_module,
    validate_lie,
)
from pbwgate.linalg import Matrix

from conftest import alpha_difference, ce_matrix, matmul, wedge_restriction_is_exact


VALID_ENTRIES = [
    "sl2-borel",
    "diagonal-sl2",
    "diagonal-heisenberg",
    "abelian-inclusion",
    "semidirect-split",
]

ALPHA_TRIVIAL = {
    "sl2-borel": False,
    "diagonal-sl2": True,
    "diagonal-heisenberg": True,
    "abelian-inclusion": True,
    "semidirect-split": True,
}


def _pair(name):
    return catalog_get(name).pair()


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_golden_sl2_borel():
    started = time.perf_counter()
    pair = _pair("sl2-borel")
    n_mod = quotient_module(pair)
    c = connecting_cocycle(pair)
    # c(e)(f) = -h, c(h)(f) = 0 in the (e, h) coordinates of the subalgebra
    assert c.values.entry(0, 0) == Q(0) and c.values.entry(1, 0) == Q(-1)
    assert c.values.entry(0, 1) == Q(0) and c.values.entry(1, 1) == Q(0)
    a = alpha_cocycle(pair, n_mod)
    # a(e)(f (x) f) = 2 f, a(h)(f (x) f) = 0
    assert a.values.entry(0, 0) == Q(2)
    assert a.values.entry(0, 1) == Q(0)
    assert is_trivial(pair, n_mod, a) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(1, f"sl2-borel golden values exact, alpha non-trivial ({elapsed*1000:.0f} ms < 1 s)")


def test_criterion_2_classical_pbw_recovery():
    started = time.perf_counter()
    pair = _pair("diagonal-sl2")
    n_mod = quotient_module(pair)
    datum = find_extension(pair, n_mod)
    assert datum is not None
    maps = pbw_splitting_I(pair, datum, 3)
    r_filt = build_filtration(pair, "R", 3)
    # dim R^k = sum_{i<=k} C(i+2, 2) = 1, 4, 10, 20 for k = 0..3
    expected_dims = [1, 4, 10, 20]
    assert [r_filt.dim(k) for k in range(4)] == expected_dims
    rank_rep = dimension_identity_check(pair, "R", 3)
    assert rank_rep.rank_codims == expected_dims
    for k, mm in enumerate(maps):
        assert mm.is_equivariant()
        top = range(r_filt.dim(k - 1), r_filt.dim(k))
        assert mm.matrix.take(top, range(mm.source.dim)) == Matrix.identity(mm.source.dim)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _passed(2, f"diagonal-sl2 splittings built for k <= 3, dims {expected_dims} rank-verified ({elapsed:.2f} s < 30 s)")


def _printed_s2(pair, rho, x1, x2):
    out = {(x1, x2): Q(1)}
    for r in range(pair.dim_n):
        c = rho.rho[x1].entry(r, x2)
        if c:
            out[(r,)] = out.get((r,), Q(0)) - c
    return {w: c for w, c in out.items() if c}


def _printed_s3(pair, rho, x1, x2, x3):
    dn = pair.dim_n
    out = {}

    def add(word, coeff):
        if coeff:
            out[word] = out.get(word, Q(0)) + coeff
            if not out[word]:
                del out[word]

    add((x1, x2, x3), Q(1))
    for r in range(dn):
        add((x1, r), -rho.rho[x2].entry(r, x3))
        add((x2, r), -rho.rho[x1].entry(r, x3))
        add((r, x3), -rho.rho[x1].entry(r, x2))
    m = matmul(rho.rho[x2], rho.rho[x1])
    for r in range(dn):
        add((r,), m.entry(r, x3))
    for r in range(dn):
        c = rho.rho[x1].entry(r, x2)
        if c:
            for s in range(dn):
                add((s,), c * rho.rho[r].entry(s, x3))
    return out


def test_criterion_3_printed_formula_match():
    checked = []
    for name in VALID_ENTRIES:
        if not ALPHA_TRIVIAL[name]:
            continue
        pair = _pair(name)
        rho = find_extension(pair, quotient_module(pair))
        assert rho is not None
        filt = build_filtration(pair, "F", 3)
        s2 = splitting_s(pair, rho, 2, filt=filt)
        s3 = splitting_s(pair, rho, 3, filt=filt)
        dn = pair.dim_n
        for x1, x2 in itertools.product(range(dn), repeat=2):
            expect = _printed_s2(pair, rho, x1, x2)
            col = x1 * dn + x2
            for wpos, w in enumerate(filt.words[: filt._word_offsets[3]]):
                assert s2.matrix.entry(wpos, col) == expect.get(w, Q(0))
        for x1, x2, x3 in itertools.product(range(dn), repeat=3):
            expect = _printed_s3(pair, rho, x1, x2, x3)
            col = (x1 * dn + x2) * dn + x3
            for wpos, w in enumerate(filt.words[: filt._word_offsets[4]]):
                assert s3.matrix.entry(wpos, col) == expect.get(w, Q(0))
        checked.append(name)
    _passed(3, f"s_2 and s_3 match the printed formulas coefficientwise on {', '.join(checked)}")


def test_criterion_4_equivalence_harness():
    for name in VALID_ENTRIES:
        rep = equivalence_harness(_pair(name), K=4)
        assert rep.alpha_trivial == ALPHA_TRIVIAL[name], name
        assert rep.ok, (name, rep)
    _passed(4, "alpha/free-side/straightened-side verdicts agree for k <= 4 on all catalog pairs")


def test_criterion_5_dimension_identities():
    for name in VALID_ENTRIES:
        pair = _pair(name)
        dn = pair.dim_n
        f = build_filtration(pair, "F", 4)
        r = build_filtration(pair, "R", 4)
        for k in range(5):
            assert f.dim(k) == sum(dn ** i for i in range(k + 1)), name
            assert r.dim(k) == sum(math.comb(dn + i - 1, i) for i in range(k + 1)), name
        for side in ("F", "R"):
            rep = dimension_identity_check(pair, side, 4)
            assert rep.ok, (name, side, rep)
    _passed(5, "dim F^k and dim R^k match the closed forms (and rank checks) for k <= 4 on all pairs")


def test_criterion_6_cohomology_soundness():
    for name in VALID_ENTRIES:
        pair = _pair(name)
        n_mod = quotient_module(pair)
        mods = [trivial_module(pair.h), n_mod, hom_module(tensor_module(n_mod, n_mod), n_mod)]
        for mod in mods:
            for p in (0, 1, 2):
                dp = ce_matrix(pair.h, mod, p)
                dn_ = ce_matrix(pair.h, mod, p + 1)
                assert not any(matmul(dn_, dp).data), (name, p)
        c = connecting_cocycle(pair)  # raises internally if not a cocycle
        a = alpha_cocycle(pair, n_mod)
        assert wedge_restriction_is_exact(pair, a), name
    # complement independence on the pairs admitting a second coordinate complement
    for name in ("diagonal-sl2", "diagonal-heisenberg"):
        pf = catalog_get(name)
        p1 = pf.pair()
        alg = pf.algebra()
        emb = [list(col) for col in pf.h_embedding]
        p2 = make_pair(alg, emb, complement=(0, 1, 2))
        assert is_trivial(p1, quotient_module(p1), alpha_difference(p1, p2)) is not None, name
    _passed(6, "d.d = 0, cocycle identities, wedge-square restriction exact, class complement-independent")


def test_criterion_7_appendix_checks():
    for name in VALID_ENTRIES:
        pair = _pair(name)
        assert bg_conditions(pair) == (True, True), name
        for k in range(5):
            assert qa_graded_dimension(pair, k) == qa_closed_form(pair, k), (name, k)
    neg = catalog_get("jacobi-broken-negative-control").pair()
    cond1, cond2 = bg_conditions(neg)
    assert cond2 is False
    for name in ("sl2-borel", "diagonal-sl2"):
        rep = koszul_acyclicity(_pair(name), 4)
        assert rep.ok, name
        for s in rep.slices:
            assert all(s.exact.values()), (name, s.internal_degree)
    _passed(7, "straightening conditions, graded dimensions (k <= 4), Koszul slices exact (degree <= 4)")


def test_criterion_8_twisted_theorem():
    cases = [
        ("sl2-borel", "n", False),
        ("sl2-borel", "trivial", False),
        ("diagonal-sl2", "adjoint", True),
    ]
    for name, module_name, both_trivial in cases:
        pf = catalog_get(name)
        pair = pf.pair()
        coeff = pf.module(pair, module_name)
        rep = twisted_verdict(pair, coeff, 3)
        assert rep.predicted_split == both_trivial, (name, module_name)
        assert rep.ok, (name, module_name, rep)
    _passed(8, "twisted verdicts agree with the predicted equivalences at K = 3 for all three cases")


def test_criterion_9_cli_contract(tmp_path):
    out = tmp_path / "out.json"
    code = main(["all", "--example", "sl2-borel", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True
    by_check = {}
    for rec in doc["records"]:
        by_check.setdefault(rec["check"], rec)
        assert {"check", "anchor", "verdict", "witness", "millis"} <= set(rec)
        assert rec["anchor"].strip()
    alpha = by_check["alpha"]["witness"]
    assert alpha["c"]["e"]["f"] == {"e": "0", "h": "-1"}
    assert alpha["c"]["h"]["f"] == {"e": "0", "h": "0"}
    assert alpha["a"]["e"]["f*f"] == {"f": "2"}
    assert alpha["a"]["h"]["f*f"] == {"f": "0"}
    assert alpha["alpha_trivial"] is False
    _passed(9, "pbwgate all --example sl2-borel exits 0 with the golden witness rationals in out.json")
