import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.koszul import (
    _QaDegrees,
    _in_class_span,
    _word_classes,
    bg_conditions,
    koszul_acyclicity,
    ktilde_basis,
    qa_closed_form,
    qa_graded_dimension,
    quadratic_data,
)
from pbwgate.lie import LieAlgebra, make_pair

from conftest import reference_relation_span, sl2


def jacobi_broken_pair():
    g = LieAlgebra.from_pairs(3, [(0, 2, {2: 1}), (1, 2, {0: 1})], labels=("a0", "a1", "a2"))
    return make_pair(g, [0, 1])


def full_abelian_pair():
    g = LieAlgebra(3)
    return make_pair(g, [0, 1, 2])  # h = g, qA = S(g)


def test_qr_dimension(sl2_borel, diag_sl2):
    # rank of the spanning set: dim_h * dim_n + C(dim_h, 2)
    for pair in (sl2_borel, diag_sl2):
        qd = quadratic_data(pair)
        dh, dn = pair.dim_h, pair.dim_n
        assert qd.dim == dh * dn + dh * (dh - 1) // 2
        assert qd.phi_consistent


def test_phi_values(sl2_borel):
    qd = quadratic_data(sl2_borel)
    # the pair (e, f) spans a basis vector with phi(e (x) f - f (x) e) = [e, f] = h
    j = qd.basis_pairs.index((1, 0))  # letters: 1 = e (h-letter), 0 = f (n-letter)
    col = qd.phi.transpose().data[j]
    assert col == {2: 1}  # h-letter index 2 is the element h


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
    qd = quadratic_data(jacobi_broken_pair())
    assert qd.phi_consistent


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
    # the classes of R_d built from R_{d-1} (x) g and the relations in the
    # last position are the free columns and the reductions of the echelon
    # of the relations at every position; the product table reads the same
    # reductions for each basis word of one degree below times a letter
    pair = catalog_get(name).pair()
    dg = pair.g.dim
    top = 5 if dg == 3 else 4
    qa = _QaDegrees(pair, top)
    assert len(qa.times) == top
    for d in range(top + 1):
        ref = reference_relation_span(qa.qd, d, range(d - 1))
        assert qa.basis_words[d] == ref.free_columns()
        assert qa.dim(d) == dg ** d - ref.rank
        for word in range(dg ** d):
            # a binomial span sends a word to one basis word, coefficient int 1
            assert ref.reduce({word: 1}) == {qa.reps[d][word]: 1}
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
    qds = {name: quadratic_data(catalog_get(name).pair()) for name in catalog_list()}
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
            refs[key] = (_word_classes(qd, d, positions), reference_relation_span(qd, d, positions))
        rep, ref = refs[key]
        words = st.integers(0, dg ** d - 1)
        vec = data.draw(st.dictionaries(words, st.integers(-3, 3).filter(bool), max_size=6))
        if data.draw(st.booleans()):
            # a sum of relations, so that membership is not always False
            for w, v in list(vec.items()):
                vec[rep[w]] = vec.get(rep[w], 0) - v
            vec = {w: v for w, v in vec.items() if v}
        assert _in_class_span(rep, vec) == (not ref.reduce(vec))

    prop()
