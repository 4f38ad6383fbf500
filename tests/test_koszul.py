import json
import random
from pathlib import Path

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.koszul import (
    _classes,
    _QaDegrees,
    _in_relations_at,
    _omission_templates,
    _potential,
    bg_conditions,
    koszul_acyclicity,
    ktilde_basis,
    qa_closed_form,
    qa_graded_dimension,
    quadratic_data,
)
from pbwgate.lie import LieAlgebra, make_pair
from pbwgate.linalg import Echelon, _int_rows
from pbwgate.problem import parse_problem

from conftest import (
    SL2_DEGENERATE,
    overlap_vectors,
    reference_bg_conditions,
    reference_in_class_span,
    reference_koszul_acyclicity,
    reference_ktilde,
    reference_omission_templates,
    reference_quadratic_data,
    reference_relation_span,
    reference_word_classes,
    sl2,
    sl2_degenerate_document,
    subspace_intersection,
)
from test_random_pairs import _conjugate, _random_invertible

CONJUGATED_DIAGONAL_SL2 = Path(__file__).parent / "data" / "diagonal-sl2-conjugated-3.json"


def jacobi_broken_pair():
    g = LieAlgebra.from_pairs(3, [(0, 2, {2: 1}), (1, 2, {0: 1})], labels=("a0", "a1", "a2"))
    return make_pair(g, [0, 1])


def full_abelian_pair():
    g = LieAlgebra(3)
    return make_pair(g, [0, 1, 2])  # h = g, qA = S(g)


def test_qr_dimension(sl2_borel, diag_sl2):
    # rank of the spanning set: dim_h * dim_n + C(dim_h, 2)
    for pair in (sl2_borel, diag_sl2):
        dh, dn = pair.dim_h, pair.dim_n
        assert len(quadratic_data(pair)) == dh * dn + dh * (dh - 1) // 2
        assert reference_quadratic_data(pair).phi_consistent


def test_phi_values(sl2_borel):
    # the pair (e, f) spans a basis binomial with phi(e (x) f - f (x) e) = [e, f] = h
    assert (1, 0) in quadratic_data(sl2_borel)  # letters: 1 = e (h-letter), 0 = f (n-letter)
    potential = _potential(sl2_borel)
    assert potential[1 * 3 + 0] == {2: 1}  # h-letter index 2 is the element h
    assert potential[0 * 3 + 1] == {}  # f (x) e is no basis orientation


@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "diag_heis", "abelian_pair", "semidirect_pair"])
def test_bg_conditions_valid(fixture, request):
    pair = request.getfixturevalue(fixture)
    assert bg_conditions(pair) == (True, True)


def test_bg_conditions_abelian_full():
    assert bg_conditions(full_abelian_pair()) == (True, True)


def test_bg_negative_control():
    cond1, cond2 = bg_conditions(jacobi_broken_pair())
    assert cond1 is True
    assert cond2 is False


def test_qa_dims_low_degree(sl2_borel):
    assert qa_graded_dimension(sl2_borel, 0) == 1
    assert qa_graded_dimension(sl2_borel, 1) == 3


def test_qa_dims_borel():
    # 1, 3, 6, 10, 15
    pair = make_pair(sl2(), [0, 1])
    for k in range(5):
        assert qa_graded_dimension(pair, k) == qa_closed_form(pair, k)
    assert qa_closed_form(pair, 2) == 6


def test_qa_dims_diag_sl2(diag_sl2):
    assert qa_closed_form(diag_sl2, 2) == 24
    for k in range(5):
        assert qa_graded_dimension(diag_sl2, k) == qa_closed_form(diag_sl2, k)


@pytest.mark.parametrize("fixture", ["diag_heis", "abelian_pair", "semidirect_pair"])
def test_qa_dims_other_pairs(fixture, request):
    pair = request.getfixturevalue(fixture)
    for k in range(5):
        assert qa_graded_dimension(pair, k) == qa_closed_form(pair, k)


@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "semidirect_pair"])
def test_koszul_report_carries_qa_dims(fixture, request):
    pair = request.getfixturevalue(fixture)
    rep = koszul_acyclicity(pair, 3)
    assert rep.qa_dims == [qa_graded_dimension(pair, k) for k in range(4)]


def test_ktilde_dimensions(sl2_borel, diag_sl2):
    for pair in (sl2_borel, diag_sl2):
        dn, dh = pair.dim_n, pair.dim_h
        for i in range(1, dh + 2):
            kt = ktilde_basis(pair, i)
            assert kt.dim == kt.expected_dim

    # concrete: sl2-borel K^3 is spanned by the single full wedge
    assert ktilde_basis(sl2_borel, 3).dim == 1
    assert ktilde_basis(sl2_borel, 4).dim == 0


def test_koszul_slices_borel(sl2_borel):
    rep = koszul_acyclicity(sl2_borel, 4)
    assert rep.ktilde_dims_ok
    assert rep.containment_ok
    for s in rep.slices:
        assert s.dd_zero
        assert all(s.exact.values()), (s.internal_degree, s.exact)
        assert s.rightmost_homology == 0


def test_koszul_slices_diag_sl2(diag_sl2):
    rep = koszul_acyclicity(diag_sl2, 4)
    assert rep.ok
    for s in rep.slices:
        assert s.rightmost_homology == 0


def test_koszul_degree_one_trivial(semidirect_pair):
    rep = koszul_acyclicity(semidirect_pair, 1)
    s = rep.slices[0]
    assert s.dims[0] == semidirect_pair.g.dim
    assert s.ok


def test_koszul_classical_symmetric_algebra():
    # h = g abelian: qA = S(g), the classical Koszul complex
    rep = koszul_acyclicity(full_abelian_pair(), 4)
    assert rep.ok


def test_negative_control_still_has_consistent_phi():
    assert reference_quadratic_data(jacobi_broken_pair()).phi_consistent


def test_quadratic_data_built_once_per_koszul_record(monkeypatch):
    from pbwgate import koszul as koszul_mod
    from pbwgate.catalog import catalog_get
    from pbwgate.report import run_command

    calls = []
    real = koszul_mod.quadratic_data

    def counting(pair):
        calls.append(pair)
        return real(pair)

    monkeypatch.setattr(koszul_mod, "quadratic_data", counting)
    assert run_command("koszul", catalog_get("sl2-borel")).ok
    assert len(calls) == 1


@pytest.mark.parametrize("name", catalog_list())
def test_incremental_relation_spans_match_the_full_span(name):
    # the classes of R_d built from the basis words of qA_{d-1} times a
    # letter are the free columns and the reductions of the echelon of the
    # relations at every position: a word's class, read by walking the
    # product table letter by letter from degree 0, is the basis word the
    # echelon reduces it to, and so is each basis word below times a letter
    pair = catalog_get(name).pair()
    dg = pair.g.dim
    top = 5 if dg == 3 else 4
    qa = _QaDegrees(pair, top)
    assert len(qa.times) == top
    qd = reference_quadratic_data(pair)
    for d in range(top + 1):
        ref = reference_relation_span(qd, d, range(d - 1))
        assert qa.basis_words[d] == ref.free_columns()
        assert qa.dim(d) == dg ** d - ref.rank
        for word in range(dg ** d):
            coord = 0
            for j in range(d):
                coord = qa.times[j][coord][word // dg ** (d - 1 - j) % dg]
            # a binomial span sends a word to one basis word, coefficient int 1
            assert ref.reduce({word: 1}) == {qa.basis_words[d][coord]: 1}
        if d:
            assert [len(row) for row in qa.times[d - 1]] == [dg] * qa.dim(d - 1)
            for p, row in enumerate(qa.times[d - 1]):
                for x, coord in enumerate(row):
                    product = qa.basis_words[d - 1][p] * dg + x
                    assert ref.reduce({product: 1}) == {qa.basis_words[d][coord]: 1}


def test_class_membership_is_membership_in_the_eliminated_span():
    # a vector lies in the span of the relations at the given positions iff
    # its coefficients sum to zero on every class
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    qds = {name: reference_quadratic_data(catalog_get(name).pair()) for name in catalog_list()}
    refs = {}

    @hypothesis.settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        name = data.draw(st.sampled_from(sorted(qds)))
        qd, dg = qds[name], qds[name].pair.g.dim
        d = data.draw(st.integers(2, 4 if dg == 3 else 3))
        positions = tuple(sorted(data.draw(st.sets(st.integers(0, d - 2)))))
        key = (name, d, positions)
        if key not in refs:
            refs[key] = (reference_word_classes(qd, d, positions), reference_relation_span(qd, d, positions))
        rep, ref = refs[key]
        words = st.integers(0, dg ** d - 1)
        vec = data.draw(st.dictionaries(words, st.integers(-3, 3).filter(bool), max_size=6))
        if data.draw(st.booleans()):
            # a sum of relations, so that membership is not always False
            for w, v in list(vec.items()):
                vec[rep[w]] = vec.get(rep[w], 0) - v
            vec = {w: v for w, v in vec.items() if v}
        assert reference_in_class_span(rep, vec) == (not ref.reduce(vec))

    prop()


def test_two_letter_classes_decide_membership_at_each_position():
    # the classes of the relations at position k, read through the qA_2
    # coordinate of the two letters there, are the full-word classes: on
    # random vectors and on sums of relations both say the same
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    qas = {name: _QaDegrees(catalog_get(name).pair(), 2) for name in catalog_list()}
    qds = {name: reference_quadratic_data(catalog_get(name).pair()) for name in catalog_list()}
    refs = {}

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        name = data.draw(st.sampled_from(sorted(qas)))
        qa = qas[name]
        dg = qa.dg
        d = data.draw(st.integers(2, 5 if dg == 3 else 4))
        k = data.draw(st.integers(0, d - 2))
        if (name, d, k) not in refs:
            refs[name, d, k] = reference_word_classes(qds[name], d, (k,))
        rep = refs[name, d, k]
        vec = data.draw(st.dictionaries(st.integers(0, dg ** d - 1), st.integers(-3, 3).filter(bool), max_size=6))
        if data.draw(st.booleans()):
            for w, v in list(vec.items()):
                vec[rep[w]] = vec.get(rep[w], 0) - v
            vec = {w: v for w, v in vec.items() if v}
        pair_class = [c for row in qa.times[1] for c in row]
        assert _in_relations_at(vec, pair_class, dg, d, k) == reference_in_class_span(rep, vec)

    prop()


CLOSED_FORM_CASES = catalog_list() + [
    "diagonal-sl2-conjugated-3",
    "diagonal-sl2 seed 71",
    "jacobi-broken-negative-control seed 72",
    "semidirect-split seed 73",
    "diagonal-heisenberg seed 74",
    "sl2-degenerate h=0",
    "sl2-degenerate h=g",
]


def _closed_form_case_pair(case):
    """A catalog pair, the committed conjugated copy, a catalog pair in the
    basis of a seeded random integer basis change, or a degenerate sl2-borel
    document."""
    if case == "diagonal-sl2-conjugated-3":
        return parse_problem(CONJUGATED_DIAGONAL_SL2.read_text()).pair()
    if case in SL2_DEGENERATE:
        return parse_problem(json.dumps(sl2_degenerate_document(SL2_DEGENERATE[case]))).pair()
    if " seed " not in case:
        return catalog_get(case).pair()
    name, seed = case.split(" seed ")
    pf = catalog_get(name)
    return make_pair(*_conjugate(pf, _random_invertible(random.Random(int(seed)), pf.dim)))


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_letter_pairs_and_ktilde_lists_match_the_eliminating_reference(case):
    # the letter pairs are the qR basis an echelon keeps from the spanning
    # set, and the potential is phi on it, entry for entry and 0 off it; the
    # K^i lists are the ones an echelon keeps, and the templates read from
    # the sorted-set index are the Coordinates of each omitted wedge
    pair = _closed_form_case_pair(case)
    dg = pair.g.dim
    ref = reference_quadratic_data(pair)
    pairs = quadratic_data(pair)
    assert pairs == ref.basis_pairs
    assert ref.basis == [{a * dg + x: 1, x * dg + a: -1} for a, x in pairs]
    assert ref.phi_consistent
    potential = _potential(pair)
    phi_cols = ref.phi.transpose().data
    assert [potential[a * dg + x] for a, x in pairs] == phi_cols
    assert {w for w, col in enumerate(potential) if col} <= {a * dg + x for a, x in pairs}
    kt = [ktilde_basis(pair, i) for i in range(pair.dim_h + 3)]
    rk = [reference_ktilde(pair, i) for i in range(pair.dim_h + 3)]
    for i in range(pair.dim_h + 3):
        assert (kt[i].lists, kt[i].vectors, kt[i].expected_dim) == (rk[i].lists, rk[i].vectors, rk[i].expected_dim)
        if i:
            assert _omission_templates(kt[i], kt[i - 1]) == reference_omission_templates(rk[i], rk[i - 1], dg)


@pytest.mark.parametrize("case", CLOSED_FORM_CASES)
def test_tagged_overlap_matches_the_zassenhaus_reference(case):
    # the overlap qR (x) g intersect g (x) qR found by the tagged Zassenhaus
    # echelon is the span of the K^3 wedges, and the straightening conditions
    # read through the potential are the ones read through Coordinates
    pair = _closed_form_case_pair(case)
    dg = pair.g.dim
    qd = reference_quadratic_data(pair)
    (cond1, cond2), dim = reference_bg_conditions(qd)
    assert bg_conditions(pair) == (cond1, cond2)
    wedges = ktilde_basis(pair, 3).vectors
    assert len(wedges) == dim
    span = Echelon(dg ** 3)
    for vec in _int_rows(subspace_intersection(*overlap_vectors(qd), dg ** 3))[0]:
        span.insert(vec)
    assert span.rank == dim
    assert all(not span.reduce(vec) for vec in wedges)


SLICE_CASES = [f"{name} K=5" for name in catalog_list()] + [
    "diagonal-sl2-conjugated-3 K=4",
    "sl2-degenerate h=0 K=6",
    "sl2-degenerate h=g K=6",
]


@pytest.mark.parametrize("case", SLICE_CASES)
def test_slices_match_the_eliminating_reference(case):
    # d_1 read off the product table, d_2's rank counted by classes and
    # d_1 o d_2 = 0 tested on products give the report of every d_i inserted
    # into an echelon and every d o d multiplied out, entry for entry
    name, cap = case.split(" K=")
    pair, cap = _closed_form_case_pair(name), int(cap)
    assert koszul_acyclicity(pair, cap) == reference_koszul_acyclicity(pair, cap)


def test_class_rank_is_the_eliminated_rank():
    # binomials e_u - e_v, repeats, cycles and the empty set included: n
    # minus the number of classes their joins leave is the rank an echelon
    # finds, the count that gives the rank of d_2; unit columns, the columns
    # of d_1, have the rank of their distinct rows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def class_rank(n, ends):
        return n - len(set(_classes(n, ends)))

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        n = data.draw(st.integers(1, 12))
        rows = st.integers(0, n - 1)
        units = data.draw(st.lists(rows, max_size=8))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(units), max_size=len(units)))
        ends = [(u, v) for u, v in data.draw(st.lists(st.tuples(rows, rows), max_size=16)) if u != v]
        ech = Echelon(n)
        for u, v in ends:
            ech.insert({u: 1, v: -1})
        assert class_rank(n, ends) == ech.rank
        unit_span = Echelon(n)
        for col in [{u: s} for u, s in zip(units, signs)]:
            ech.insert(col)
            unit_span.insert(col)
        assert len(set(units)) == unit_span.rank
        # a unit column is a binomial to one ground row
        assert class_rank(n + 1, ends + [(u, n) for u in units]) == ech.rank

    prop()
    assert class_rank(5, []) == 0
