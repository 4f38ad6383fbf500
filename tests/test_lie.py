import random
from fractions import Fraction as Q
from pathlib import Path

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.lie import (
    LieAlgebra,
    LieModule,
    ModuleMap,
    NotInjectiveError,
    NotSubalgebraError,
    adjoint_module,
    ext_monomials,
    hom_module,
    make_pair,
    quotient_module,
    sym_power_module,
    tensor_module,
    trivial_module,
    validate_lie,
)
from pbwgate import lie
from pbwgate.engine import _quotient_power
from pbwgate.lie import _letter_ints
from pbwgate.linalg import Echelon, Matrix, _add_term, _int_rows, solve
from pbwgate.problem import parse_problem

from conftest import (
    ReferencePair,
    bracket,
    complement_change,
    diagonal_embedding,
    fraction_table,
    heisenberg,
    int_table,
    invert,
    mat_add,
    mat_sub,
    matmul,
    reference_compatibility_defects,
    reference_is_equivariant,
    sl2,
    tensor_map,
)
from test_random_pairs import _conjugate, _random_invertible


def test_validate_abelian():
    assert validate_lie(LieAlgebra(4)).ok


def test_validate_sl2():
    assert validate_lie(sl2()).ok


def test_validate_heisenberg():
    assert validate_lie(heisenberg()).ok


def test_validate_flipped_antisymmetry():
    alg = sl2()
    table = fraction_table(alg)
    table[2][0] = {1: Q(1)}  # should be -[e,f] = -h
    bad = LieAlgebra(3, alg.labels, table)
    rep = validate_lie(bad)
    assert not rep.ok
    kinds = {issue.kind for issue in rep.issues}
    assert "antisymmetry" in kinds
    assert any(issue.indices == (0, 2) for issue in rep.issues if issue.kind == "antisymmetry")


def test_validate_nonzero_self_bracket():
    # [h, h] = e is reported once, with the table entry itself as the defect
    alg = sl2()
    table = fraction_table(alg)
    table[1][1] = {0: Q(1)}
    issues = [i for i in validate_lie(LieAlgebra(3, alg.labels, table)).issues if i.kind == "antisymmetry"]
    assert [(i.indices, i.defect) for i in issues] == [((1, 1), {0: Q(1)})]


def test_validate_broken_jacobi():
    # [a0,a1]=0, [a0,a2]=a2, [a1,a2]=a0 breaks Jacobi but not antisymmetry
    alg = LieAlgebra.from_pairs(3, [(0, 2, {2: 1}), (1, 2, {0: 1})])
    rep = validate_lie(alg)
    assert [issue.kind for issue in rep.issues] == ["jacobi"]


def test_make_pair_sl2_borel(sl2_borel):
    assert sl2_borel.complement == (2,)
    assert sl2_borel.sigma.transpose().data[0] == {2: Q(1)}
    assert sl2_borel.dim_n == 1


def test_make_pair_diagonal(diag_sl2):
    assert diag_sl2.dim_h == 3
    assert diag_sl2.dim_n == 3
    assert diag_sl2.complement == (3, 4, 5)


def test_make_pair_not_subalgebra():
    with pytest.raises(NotSubalgebraError) as err:
        make_pair(sl2(), [0, 2])  # span{e, f}: [e,f] = h escapes
    assert err.value.witness in {(0, 1), (1, 0)}


def test_make_pair_not_injective():
    cols = [[1, 0, 0], [2, 0, 0]]
    with pytest.raises(NotInjectiveError):
        make_pair(sl2(), cols)


def test_induced_subalgebra_structure(sl2_borel):
    h = sl2_borel.h
    # h basis (e, h): [h, e] = 2e, i.e. table[1][0] = {0: 2}
    table = fraction_table(h)
    assert table[1][0] == {0: Q(2)}
    assert table[0][1] == {0: Q(-2)}
    assert validate_lie(h).ok


def test_quotient_module_sl2_borel(sl2_borel):
    n = quotient_module(sl2_borel)
    assert n.dim == 1
    assert n.action[0] == Matrix.zeros(1, 1)  # e acts by 0
    assert n.action[1] == Matrix.from_rows([[-2]])  # h acts by -2
    assert not n.compatibility_defects()


def test_quotient_module_abelian(abelian_pair):
    n = quotient_module(abelian_pair)
    assert n.dim == 2
    assert not any(r for m in n.action for r in m.data)


def test_quotient_of_diagonal_is_adjoint(diag_sl2):
    n = quotient_module(diag_sl2)
    ad = adjoint_module(sl2())
    # intertwiner theta(x) = n-part of (x, 0); here it is the identity on coordinates
    for a in range(3):
        assert n.action[a] == ad.action[a]
    assert not n.compatibility_defects()


def test_quotient_independent_of_complement():
    g = catalog_get("diagonal-sl2").algebra()
    p1 = make_pair(g, diagonal_embedding(sl2()))
    p2 = make_pair(g, diagonal_embedding(sl2()), complement=(0, 1, 2))
    n1, n2 = quotient_module(p1), quotient_module(p2)
    # transport: theta = n2-coordinates of sigma1
    theta = complement_change(p1, p2)
    f = ModuleMap(n1, n2, theta)
    assert f.is_equivariant()
    assert theta.rank() == p1.dim_n


def test_tensor_with_trivial_is_identity(sl2_borel):
    n = quotient_module(sl2_borel)
    t = tensor_module(trivial_module(sl2_borel.h), n)
    for a in range(sl2_borel.dim_h):
        assert t.action[a] == n.action[a]


def test_tensor_square_of_borel_quotient(sl2_borel):
    n = quotient_module(sl2_borel)
    t = tensor_module(n, n)
    assert t.dim == 1
    assert t.action[0] == Matrix.zeros(1, 1)  # e
    assert t.action[1] == Matrix.from_rows([[-4]])  # h: Leibniz -2 + -2
    assert not t.compatibility_defects()


def test_tensor_bracket_compatibility(diag_sl2):
    n = quotient_module(diag_sl2)
    assert not tensor_module(n, n).compatibility_defects()


def test_tensor_associativity_reindexing(diag_heis):
    n = quotient_module(diag_heis)
    m = trivial_module(diag_heis.h, 2)
    left = tensor_module(tensor_module(n, m), n)
    right = tensor_module(n, tensor_module(m, n))
    # same flat index order (i, j, k) -> (i*dimM + j)*dimN + k in both
    for a in range(diag_heis.dim_h):
        assert left.action[a] == right.action[a]


def test_module_constructors_match_the_fraction_reference():
    # the int Kronecker sums over the common scale equal tensor_map sums of
    # the Fraction actions, on modules over different scales above 1; ad reads
    # column j of ad(x_i) off [x_i, x_j]
    from test_cohomology import _conjugated_sl2

    pair = _conjugated_sl2()
    n, ad = quotient_module(pair), adjoint_module(pair.h)
    nn = tensor_module(n, n)
    assert n.scale > ad.scale > 1
    table = fraction_table(pair.h)
    for a in range(pair.dim_h):
        assert ad.action[a].transpose().data == table[a]
    for m, k in ((n, ad), (nn, n), (ad, nn)):
        im, ik = Matrix.identity(m.dim), Matrix.identity(k.dim)
        for a in range(pair.dim_h):
            ma, ka = m.action[a], k.action[a]
            assert tensor_module(m, k).action[a] == mat_add(tensor_map(ma, ik), tensor_map(im, ka))
            assert hom_module(m, k).action[a] == mat_sub(tensor_map(ka, im), tensor_map(ik, ma.transpose()))


def test_hom_from_trivial(sl2_borel):
    n = quotient_module(sl2_borel)
    h = hom_module(trivial_module(sl2_borel.h), n)
    for a in range(sl2_borel.dim_h):
        assert h.action[a] == n.action[a]


def test_hom_e_acts_trivially_on_borel_hom(sl2_borel):
    n = quotient_module(sl2_borel)
    hom = hom_module(tensor_module(n, n), n)
    assert not any(hom.action[0].data)  # e acts trivially since it kills n
    assert not hom.compatibility_defects()


def test_double_dual(diag_sl2):
    n = quotient_module(diag_sl2)
    dual = lambda m: hom_module(m, trivial_module(m.algebra, 1))
    dd = dual(dual(n))
    # double dual action equals the original in the canonical bases
    for a in range(diag_sl2.dim_h):
        assert dd.action[a] == n.action[a]


def test_sym_ext_power_dims():
    ad = adjoint_module(sl2())
    assert sym_power_module(ad, 0).dim == 1
    assert len(ext_monomials(ad.dim, 0)) == 1
    assert sym_power_module(ad, 2).dim == 6
    assert len(ext_monomials(ad.dim, 2)) == 3
    assert len(ext_monomials(ad.dim, 3)) == 1
    assert len(ext_monomials(ad.dim, 4)) == 0


def test_sym_ext_power_compatibility():
    ad = adjoint_module(sl2())
    assert not sym_power_module(ad, 2).compatibility_defects()
    assert not tensor_module(ad, ad).compatibility_defects()


def test_tensor_power_of_line(sl2_borel):
    n = quotient_module(sl2_borel)
    t3 = _quotient_power(sl2_borel, 3)
    assert t3.dim == 1
    assert t3.action[1] == Matrix.from_rows([[-6]])


def test_letter_coords_roundtrip(diag_sl2):
    # letters: sigma(n_r) for r < dim_n, then the embedded h-basis; the
    # pair's letter coordinates of g's basis (int rows over s) take each
    # letter back to its unit vector, as the reference solve does
    pair = diag_sl2
    letters = pair.sigma.transpose().data + pair.h_embedding.transpose().data
    ref = ReferencePair(pair.g, pair.h_embedding, pair.complement)
    rows, s = pair._inverse
    for u in range(pair.g.dim):
        vec = letters[u]
        assert ref.letter_coords(vec) == {u: Q(1)}
        acc = {}
        for i, x in vec.items():
            for w, c in rows[i].items():
                _add_term(acc, w, x * c / s)
        assert acc == {u: Q(1)}


def _construction_cases() -> list:
    """(id, g, embedding matrix, complement): the six catalog pairs, the
    committed conjugated diagonal-sl2, seeded conjugated copies (drawn as in
    test_random_pairs) and a conjugated copy whose h basis has denominators."""
    cases = []
    for name in catalog_list():
        pair = catalog_get(name).pair()
        cases.append((name, pair.g, pair.h_embedding, pair.complement))
    committed = parse_problem((Path(__file__).parent / "data" / "diagonal-sl2-conjugated-3.json").read_text()).pair()
    cases.append(("committed", committed.g, committed.h_embedding, committed.complement))
    for name, seed in (("sl2-borel", 3), ("semidirect-split", 5), ("diagonal-heisenberg", 11), ("diagonal-sl2", 7)):
        pf = catalog_get(name)
        conj, emb = _conjugate(pf, _random_invertible(random.Random(seed), pf.dim))
        cases.append((f"{name}~{seed}", conj, emb, make_pair(conj, emb).complement))
    _, conj, emb, complement = cases[-1]
    scaled = Matrix(emb.rows, emb.cols, [{c: v * Q(2, 3 + c) for c, v in r.items()} for r in emb.data])
    cases.append(("diagonal-sl2~7 scaled h", conj, scaled, complement))
    return cases


def _assert_pair_is_the_reference(pair, ref):
    """The pair's letter table (its int form), h's table and labels, and n
    all equal the reference route's."""
    assert _letter_ints(pair) == int_table(ref.table)
    assert pair.h.int_table == ref.h.int_table
    assert pair.h.labels == ref.h.labels
    assert quotient_module(pair).key() == ref.quotient_module().key()


@pytest.mark.parametrize("case", _construction_cases(), ids=lambda case: case[0])
def test_pair_construction_matches_the_reference_route(case):
    _, g, emb, complement = case
    _assert_pair_is_the_reference(make_pair(g, emb, complement), ReferencePair(g, emb, complement))


def test_pair_construction_reference_catches_a_wrong_inverse_column(monkeypatch):
    # one wrong letter-coordinate column of g's basis: that of basis vector 1,
    # scaled by 2 (the reference solves through its own Coordinates)
    _, conj, conj_emb, conj_complement = _construction_cases()[-1]
    ReferencePair(conj, conj_emb, conj_complement)  # a subalgebra: the reference builds it

    class WrongColumn(lie.Coordinates):
        def __call__(self, x):
            sol = super().__call__(x)
            return {j: 2 * v for j, v in sol.items()} if x == {1: 1} else sol

    monkeypatch.setattr(lie, "Coordinates", WrongColumn)
    # on sl2-borel, h's brackets land on e = x_0 alone: the pair builds, and
    # its letter table ([f, e] = -h) differs from the reference's
    g, emb, complement = sl2(), Matrix(2, 3, [{0: Q(1)}, {1: Q(1)}]).transpose(), (2,)
    with pytest.raises(AssertionError):
        _assert_pair_is_the_reference(make_pair(g, emb, complement), ReferencePair(g, emb, complement))
    # in conjugated coordinates h's brackets meet it, and h is rejected
    with pytest.raises(NotSubalgebraError):
        make_pair(conj, conj_emb, conj_complement)


def _echelon_complement(g, emb: Matrix) -> list:
    ech = Echelon(g.dim)
    for col in _int_rows(emb.transpose().data)[0]:
        ech.insert(col)
    return ech.free_columns()


def _not_a_subalgebra_cases() -> list:
    """(id, g, embedding columns) whose span is not closed under the bracket:
    the first failing bracket, row by row, is (0, 1) or (1, 2), in catalog
    and in seeded conjugated coordinates."""
    pf = catalog_get("diagonal-sl2")  # basis (e1, h1, f1, e2, h2, f2)
    g6 = pf.algebra()
    p_mat = _random_invertible(random.Random(13), 6)
    conj, _ = _conjugate(pf, p_mat)
    p_inv = invert(p_mat)
    # [e1, f1] = h1; then (e1, e2, f2), whose first brackets vanish and [e2, f2] = h2
    e1f1, e1e2f2 = ([{c: Q(1)} for c in idx] for idx in ((0, 2), (0, 3, 5)))
    return [
        ("sl2 e, f", sl2(), [{0: Q(1)}, {2: Q(1)}]),
        ("e1, f1", g6, e1f1),
        ("e1, e2, f2", g6, e1e2f2),
        ("e1, f1 conjugated", conj, [p_inv.apply(v) for v in e1f1]),
        ("e1, e2, f2 conjugated", conj, [p_inv.apply(v) for v in e1e2f2]),
    ]


@pytest.mark.parametrize("case", _not_a_subalgebra_cases(), ids=lambda case: case[0])
def test_not_subalgebra_witness_matches_the_reference_route(case):
    _, g, cols = case
    emb = Matrix(len(cols), g.dim, cols).transpose()
    with pytest.raises(NotSubalgebraError) as expected:
        ReferencePair(g, emb, _echelon_complement(g, emb))
    with pytest.raises(NotSubalgebraError) as got:
        make_pair(g, emb)
    assert got.value.witness == expected.value.witness
    assert str(got.value) == str(expected.value)
    assert got.value.witness in ((0, 1), (1, 2))


@pytest.mark.parametrize("complement", [(0,), (2, 0), (2, 2)], ids=["inside h", "one too many", "repeated"])
def test_complement_errors_match_the_reference_route(complement):
    # sl2-borel (h = span(e, h)): a complement inside h leaves g unspanned,
    # and an extra coordinate spans g without completing h to a basis
    g = sl2()
    emb = Matrix(2, 3, [{0: Q(1)}, {1: Q(1)}]).transpose()
    with pytest.raises(ValueError) as expected:
        ReferencePair(g, emb, complement)
    with pytest.raises(ValueError) as got:
        make_pair(g, [0, 1], complement=complement)
    assert str(got.value) == str(expected.value) == "complement does not complete the subalgebra to a basis of g"


def test_tensor_hom_algebra_mismatch(sl2_borel, semidirect_pair):
    n1 = quotient_module(sl2_borel)
    n2 = quotient_module(semidirect_pair)
    with pytest.raises(ValueError):
        tensor_module(n1, n2)
    with pytest.raises(ValueError):
        hom_module(n1, n2)


def _bracket_reference(alg, x, y):
    """The former ``LieAlgebra.bracket``: one Fraction multiply-add per term."""
    out = {}
    table = fraction_table(alg)
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in table[i][j].items():
                _add_term(out, k, xi * yj * c)
    return out


def test_bracket_matches_reference():
    rng = random.Random(29)
    base = catalog_get("diagonal-sl2")
    alg = base.algebra()
    dim = alg.dim
    while True:
        p_mat = Matrix.from_rows([[Q(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)])
        if p_mat.rank() == dim:
            break
    # the same algebra in the basis P e_i: [b_i, b_j] = P^-1 [P e_i, P e_j]
    p_inv = invert(p_mat)
    p_cols = p_mat.transpose().data
    conj = LieAlgebra(dim, alg.labels, [[p_inv.apply(_bracket_reference(alg, x, y)) for y in p_cols] for x in p_cols])
    emb = [p_inv.apply(col) for col in base.pair().h_embedding.transpose().data]
    pair = make_pair(conj, Matrix(len(emb), dim, emb).transpose())
    assert conj.int_table[1] > 1
    pair_basis = pair.h_embedding.transpose().data + pair.sigma.transpose().data
    unit = [{i: Q(1)} for i in range(dim)]
    seeded = [
        {i: Q(rng.randint(-6, 6), rng.choice([1, 2, 3, 13])) for i in rng.sample(range(dim), rng.randint(0, dim))}
        for _ in range(12)
    ]
    # the two algebras alternate, so a table kept from the other one shows
    for vecs in (pair_basis, unit, seeded):
        for x in vecs:
            for y in vecs:
                (xr,), xs = _int_rows((x,))
                (yr,), ys = _int_rows((y,))
                for g in (conj, alg):
                    got = g._int_bracket(xr, yr)
                    assert all(type(v) is int for v in got.values())
                    den = xs * ys * g.int_table[1]
                    assert {k: Q(v, den) for k, v in got.items() if v} == _bracket_reference(g, x, y)


def test_module_law_checks_match_the_fraction_reference():
    # the int checks clear each matrix over its own scale; sl2 written in a
    # random rational basis gives structure constants, actions and maps with
    # denominators 1-6, and one perturbed entry gives a module or a map that
    # breaks its law, so a scale taken as 1 shows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def invertible(data) -> Matrix:
        m = Matrix.from_rows(data.draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3)))
        hypothesis.assume(m.rank() == 3)
        return m

    def perturbed(data, mats, k) -> list:
        """``mats`` with entry (i, j) of mats[k] moved by a nonzero rational."""
        i, j = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        bumped = Matrix(3, 3, [dict(r) for r in mats[k].data])
        bumped.data[i][j] = bumped.entry(i, j) + data.draw(entries.filter(bool))
        return [bumped if m == k else mats[m] for m in range(len(mats))]

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        p = invertible(data)
        p_inv, p_cols = invert(p), p.transpose().data
        alg = sl2()
        g = LieAlgebra(3, alg.labels, [[p_inv.apply(bracket(alg, x, y)) for y in p_cols] for x in p_cols])
        ad = adjoint_module(g)
        broken = data.draw(st.booleans())
        action = perturbed(data, ad.action, data.draw(st.integers(0, 2))) if broken else ad.action
        mod = LieModule(g, 3, action)
        defects = mod.compatibility_defects()
        assert defects == reference_compatibility_defects(mod)
        if not broken:
            assert defects == []
        # q A_i = (q A_i q^-1) q: an equivariant map ad -> the module moved by q
        q = invertible(data)
        target = [matmul(matmul(q, a), invert(q)) for a in ad.action]
        matrix = [q]
        if broken:
            if data.draw(st.booleans()):
                matrix = perturbed(data, matrix, 0)
            else:
                target = perturbed(data, target, data.draw(st.integers(0, 2)))
        f = ModuleMap(ad, LieModule(g, 3, target), matrix[0])
        assert f.is_equivariant() == reference_is_equivariant(f)
        if not broken:
            assert f.is_equivariant()

    prop()


def test_is_equivariant_compares_actions_over_different_scales():
    # sl2's adjoint action moved by p (the source) and then by q (the
    # target): q is an equivariant map between int forms over two different
    # scales, and moving any one entry of it breaks the law
    ad = adjoint_module(sl2())
    p = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    q = Matrix.from_rows([[1, 0, 0], [0, 3, 0], [1, 0, 1]])
    source = LieModule(ad.algebra, 3, [matmul(matmul(p, a), invert(p)) for a in ad.action])
    target = LieModule(ad.algebra, 3, [matmul(matmul(q, a), invert(q)) for a in source.action])
    assert 1 < source.scale != target.scale > 1
    assert ModuleMap(source, target, q).is_equivariant()
    for i in range(3):
        for j in range(3):
            moved = Matrix(3, 3, [dict(r) for r in q.data])
            moved.data[i][j] = moved.entry(i, j) + 1
            f = ModuleMap(source, target, moved)
            assert not f.is_equivariant() and not reference_is_equivariant(f), (i, j)


def test_is_equivariant_rejects_a_shape_mismatch():
    ad = adjoint_module(sl2())
    for matrix in (Matrix.identity(2), Matrix.zeros(3, 2), Matrix.zeros(2, 3)):
        with pytest.raises(ValueError, match="shape mismatch"):
            ModuleMap(ad, ad, matrix).is_equivariant()
