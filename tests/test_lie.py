import random
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get
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
from pbwgate.engine import _quotient_power
from pbwgate.linalg import Matrix, _add_term, solve

from conftest import (
    complement_change,
    diagonal_embedding,
    heisenberg,
    invert,
    matmul,
    reference_compatibility_defects,
    reference_is_equivariant,
    sl2,
)


def test_validate_abelian():
    assert validate_lie(LieAlgebra(4)).ok


def test_validate_sl2():
    assert validate_lie(sl2()).ok


def test_validate_heisenberg():
    assert validate_lie(heisenberg()).ok


def test_validate_flipped_antisymmetry():
    alg = sl2()
    table = [[dict(alg.table[i][j]) for j in range(3)] for i in range(3)]
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
    table = [[dict(alg.table[i][j]) for j in range(3)] for i in range(3)]
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
    assert h.table[1][0] == {0: Q(2)}
    assert h.table[0][1] == {0: Q(-2)}
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
    # letters: sigma(n_r) for r < dim_n, then the embedded h-basis
    letters = diag_sl2.sigma.transpose().data + diag_sl2.h_embedding.transpose().data
    for u in range(diag_sl2.g.dim):
        vec = letters[u]
        assert diag_sl2.letter_coords(vec) == {u: Q(1)}


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
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in alg.table[i][j].items():
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
    assert any(v.denominator > 1 for row in conj.table for vec in row for v in vec.values())
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
                for g in (conj, alg):
                    got = g.bracket(x, y)
                    assert got == _bracket_reference(g, x, y)
                    assert all(type(v) is Q and v for v in got.values())


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
        g = LieAlgebra(3, alg.labels, [[p_inv.apply(alg.bracket(x, y)) for y in p_cols] for x in p_cols])
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


def test_is_equivariant_rejects_a_shape_mismatch():
    ad = adjoint_module(sl2())
    for matrix in (Matrix.identity(2), Matrix.zeros(3, 2), Matrix.zeros(2, 3)):
        with pytest.raises(ValueError, match="shape mismatch"):
            ModuleMap(ad, ad, matrix).is_equivariant()
