import random
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get, catalog_list

from pbwgate.cohomology import (
    Cochain,
    ExtensionDatum,
    NotACocycleError,
    alpha_cocycle,
    ce_differential,
    connecting_cocycle,
    extension,
    find_extension,
    is_trivial,
    obstruction,
    pushout_data,
)
from pbwgate.engine import build_filtration, level_sequence
from pbwgate.lie import (
    LieAlgebra,
    LieModule,
    ModuleMap,
    _letter_ints,
    adjoint_module,
    hom_module,
    make_pair,
    quotient_module,
    tensor_module,
    trivial_module,
)
from pbwgate.linalg import Matrix, _int_rows, kernel_basis, solve
from pbwgate.problem import ProblemFile

from conftest import (
    alpha_difference,
    ce_matrix,
    combination,
    mat_add,
    mat_sub,
    matmul,
    reference_alpha_values,
    reference_ce_differential,
    reference_extension_rho,
    reference_primitive,
    sl2,
    wedge_restriction_is_exact,
)
from test_random_pairs import _conjugate, _random_invertible


def _modules_for_dd(pair):
    n = quotient_module(pair)
    yield trivial_module(pair.h)
    yield n
    yield tensor_module(n, n)
    yield hom_module(tensor_module(n, n), n)


@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "semidirect_pair", "abelian_pair"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_dd_zero(fixture, p, request):
    pair = request.getfixturevalue(fixture)
    for mod in _modules_for_dd(pair):
        d_p = ce_matrix(pair.h, mod, p)
        d_next = ce_matrix(pair.h, mod, p + 1)
        assert not any(matmul(d_next, d_p).data)


def test_differential_trivial_module_p0(sl2_borel):
    d = ce_matrix(sl2_borel.h, trivial_module(sl2_borel.h), 0)
    assert not any(d.data)


def test_differential_abelian_trivial_p1():
    h = LieAlgebra(2)
    pairless = trivial_module(h)
    assert not any(ce_matrix(h, pairless, 1).data)


def test_differential_e_block_vanishes_on_borel_hom(sl2_borel):
    # e acts trivially on Hom(n (x) n, n), so d(b)(e) = 0 for every b
    n = quotient_module(sl2_borel)
    coeff = hom_module(tensor_module(n, n), n)
    d0 = ce_matrix(sl2_borel.h, coeff, 0)
    dm = coeff.dim
    e_block_rows = range(0, dm)  # wedge monomial (e,) comes first
    assert all(not d0.data[i] for i in e_block_rows)


def test_connecting_cocycle_golden(sl2_borel):
    c = connecting_cocycle(sl2_borel)
    # coefficients in Hom(n, h), flat index i_h * dim_n + j_n; columns = (e, h)
    assert c.values.entry(0, 0) == Q(0)  # c(e)(f) has no e component
    assert c.values.entry(1, 0) == Q(-1)  # c(e)(f) = -h
    assert c.values.entry(0, 1) == Q(0)
    assert c.values.entry(1, 1) == Q(0)  # c(h)(f) = 0


def test_connecting_cocycle_split_pair(semidirect_pair):
    assert not any(connecting_cocycle(semidirect_pair).values.data)


def test_connecting_cocycle_abelian(abelian_pair):
    assert not any(connecting_cocycle(abelian_pair).values.data)


def test_alpha_cocycle_golden(sl2_borel):
    n = quotient_module(sl2_borel)
    a = alpha_cocycle(sl2_borel, n)
    # a(e)(f (x) f) = 2 f, a(h)(f (x) f) = 0
    assert a.values.entry(0, 0) == Q(2)
    assert a.values.entry(0, 1) == Q(0)


def test_alpha_trivial_coefficients(sl2_borel):
    assert not any(alpha_cocycle(sl2_borel, trivial_module(sl2_borel.h)).values.data)


def test_alpha_split_pair(semidirect_pair):
    n = quotient_module(semidirect_pair)
    assert not any(alpha_cocycle(semidirect_pair, n).values.data)


def test_is_trivial_borel_none(sl2_borel):
    n = quotient_module(sl2_borel)
    assert is_trivial(sl2_borel, n) is None


def test_is_trivial_diagonal_some(diag_sl2):
    n = quotient_module(diag_sl2)
    b = is_trivial(diag_sl2, n)
    assert b is not None
    # d(b) = a exactly
    coeff = b.module
    d0 = ce_matrix(diag_sl2.h, coeff, 0)
    a = alpha_cocycle(diag_sl2, n)
    got = d0.apply(b.vec())
    assert got == a.vec()


def test_obstruction_is_memoised_by_the_module_action(sl2_borel):
    # n and the trivial module of sl2-borel are both one-dimensional, with
    # different actions and different classes: they must not share an entry
    n, triv = quotient_module(sl2_borel), trivial_module(sl2_borel.h)
    assert n.dim == triv.dim
    assert is_trivial(sl2_borel, n) is None
    assert is_trivial(sl2_borel, triv) is not None
    # a fresh module with n's action reuses n's class; so does the extension
    obs = obstruction(sl2_borel, n)
    assert obstruction(sl2_borel, quotient_module(sl2_borel)) is obs
    assert obs.primitive is None and obs.cocycle.values == alpha_cocycle(sl2_borel, n).values
    assert extension(sl2_borel, n) is None
    assert extension(sl2_borel, triv) is extension(sl2_borel, trivial_module(sl2_borel.h)) is not None


def test_is_trivial_zero_cocycle(sl2_borel):
    n = quotient_module(sl2_borel)
    coeff = hom_module(tensor_module(n, n), n)
    zero = Cochain(1, coeff, Matrix.zeros(coeff.dim, sl2_borel.dim_h))
    b = is_trivial(sl2_borel, n, zero)
    assert b is not None and not any(b.values.data)


def test_is_trivial_rejects_non_cocycle(diag_sl2):
    n = quotient_module(diag_sl2)
    coeff = hom_module(tensor_module(n, n), n)
    values = Matrix.zeros(coeff.dim, diag_sl2.dim_h)
    values.data[0][0] = Q(1)  # generic junk; fails d(a) = 0 here
    junk = Cochain(1, coeff, values)
    d1 = ce_matrix(diag_sl2.h, coeff, 1)
    assert d1.apply(junk.vec())  # sanity: really not closed
    with pytest.raises(NotACocycleError):
        is_trivial(diag_sl2, n, junk)


@pytest.mark.parametrize("entry", [0, 1], ids=["restriction-zero", "restriction-open"])
def test_wedge_restriction_rejects_non_cocycle(entry, diag_sl2):
    # a value on n_0 (x) n_0 restricts to zero on wedge^2 n; one on n_0 (x) n_1 does not
    n = quotient_module(diag_sl2)
    coeff = hom_module(tensor_module(n, n), n)
    values = Matrix.zeros(coeff.dim, diag_sl2.dim_h)
    values.data[entry][0] = Q(1)
    junk = Cochain(1, coeff, values)
    assert ce_matrix(diag_sl2.h, coeff, 1).apply(junk.vec())  # sanity: really not closed
    with pytest.raises(NotACocycleError):
        wedge_restriction_is_exact(diag_sl2, junk)


@pytest.mark.parametrize("entry,exact", [(0, True), (1, False)], ids=["on-n0-n0", "on-n0-n1"])
def test_wedge_restriction_detects_an_antisymmetric_class(entry, exact, abelian_pair):
    # h is one-dimensional and acts trivially: every 1-cochain is closed and
    # only zero is exact, so the verdict is whether the wedge part vanishes
    n = quotient_module(abelian_pair)
    coeff = hom_module(tensor_module(n, n), n)
    values = Matrix.zeros(coeff.dim, abelian_pair.dim_h)
    values.data[entry][0] = Q(1)
    assert wedge_restriction_is_exact(abelian_pair, Cochain(1, coeff, values)) is exact


def test_find_extension_borel_none(sl2_borel):
    assert find_extension(sl2_borel, quotient_module(sl2_borel)) is None


def test_find_extension_diagonal(diag_sl2):
    n = quotient_module(diag_sl2)
    datum = find_extension(diag_sl2, n)
    assert datum is not None
    assert datum.verify()


def test_half_adjoint_is_valid_extension(diag_sl2):
    # rho(sigma_r) = (1/2) ad(y_r) satisfies both extension identities
    n = quotient_module(diag_sl2)
    ad = adjoint_module(sl2())
    rho = [combination(ad.action, {r: Q(1, 2)}, 3) for r in range(3)] + list(n.action)
    datum = ExtensionDatum(diag_sl2, n, tuple(rho))
    assert datum.verify()


def test_find_extension_trivial_module(sl2_borel):
    e = trivial_module(sl2_borel.h)
    datum = find_extension(sl2_borel, e)
    assert datum is not None
    for r in range(sl2_borel.dim_n):
        assert not any(datum.rho[r].data)


def test_extension_iff_trivial(sl2_borel, diag_sl2, diag_heis, abelian_pair, semidirect_pair):
    for pair in (sl2_borel, diag_sl2, diag_heis, abelian_pair, semidirect_pair):
        n = quotient_module(pair)
        assert (find_extension(pair, n) is not None) == (is_trivial(pair, n) is not None)


def _block_maps(q, sub_dim):
    """The coordinate inclusion of the first ``sub_dim`` coordinates of
    ``q`` and the projection onto the rest."""
    ident = Matrix.identity(q.dim)
    return ident.take(range(q.dim), range(sub_dim)), ident.take(range(sub_dim, q.dim), range(q.dim))


def test_pushout_dimension(sl2_borel, diag_sl2):
    for pair in (sl2_borel, diag_sl2):
        n = quotient_module(pair)
        q = pushout_data(pair, n).module
        include, project = _block_maps(q, n.dim)
        incl = ModuleMap(n, q, include)
        proj = ModuleMap(q, tensor_module(n, n), project)
        assert q.dim == n.dim + pair.dim_n * n.dim
        assert incl.is_equivariant()
        assert proj.is_equivariant()
        assert not any(matmul(proj.matrix, incl.matrix).data)
        assert incl.matrix.rank() == n.dim
        assert proj.matrix.rank() == pair.dim_n * n.dim
        assert not q.compatibility_defects()


PUSHOUT_CASES = [(name, None) for name in catalog_list() if not catalog_get(name).expect_invalid] + [
    (name, seed)
    for name in ("sl2-borel", "semidirect-split", "diagonal-heisenberg", "diagonal-sl2")
    for seed in range(3)
]


@pytest.mark.parametrize("name,seed", PUSHOUT_CASES)
def test_pushout_is_the_reduced_level_two_module(name, seed):
    # in E + n (x) E coordinates the pushout is the reduced level-two module
    # entry for entry, so the two sequences of the f2 comparison are one
    # system; seeded conjugated copies (seed None: catalog basis) hold the
    # h-parts that the catalog's sparse brackets mostly lack
    pf = catalog_get(name)
    if seed is None:
        pair = pf.pair()
    else:
        pair = make_pair(*_conjugate(pf, _random_invertible(random.Random(seed), pf.dim)))
    level2 = level_sequence(build_filtration(pair, "F", 2), 2, reduced=True).mid
    assert pushout_data(pair, quotient_module(pair)).module.key() == level2.key()


def test_pushout_trivial_coefficients(sl2_borel):
    # Q for trivial E is equivariantly trivial + n
    e = trivial_module(sl2_borel.h)
    q = pushout_data(sl2_borel, e).module
    n = quotient_module(sl2_borel)
    target = LieModule_direct_sum(e, n)
    t = _find_equivariant_iso(q, target)
    assert t is not None


def test_pushout_borel_no_section(sl2_borel):
    n = quotient_module(sl2_borel)
    q = pushout_data(sl2_borel, n).module
    _, project = _block_maps(q, n.dim)
    ne = tensor_module(n, n)
    # brute force: s with proj s = id and s equivariant
    nuk = q.dim * ne.dim
    rows = []
    for i in range(ne.dim):
        for j in range(ne.dim):
            row = {k * ne.dim + j: project.entry(i, k) for k in range(q.dim)}
            if i == j:
                row[nuk] = Q(1)
            rows.append({k: v for k, v in row.items() if v})
    for a in range(sl2_borel.dim_h):
        for i in range(q.dim):
            for j in range(ne.dim):
                row = {}
                for k in range(q.dim):
                    v = q.action[a].entry(i, k)
                    if v:
                        row[k * ne.dim + j] = row.get(k * ne.dim + j, 0) + v
                for k in range(ne.dim):
                    v = ne.action[a].entry(k, j)
                    if v:
                        row[i * ne.dim + k] = row.get(i * ne.dim + k, 0) - v
                rows.append({c: v for c, v in row.items() if v})
    assert solve(_int_rows(rows)[0], nuk) is None
    assert is_trivial(sl2_borel, n) is None  # consistent verdicts


def LieModule_direct_sum(m, n):
    from pbwgate.lie import LieModule

    dim = m.dim + n.dim
    action = []
    for a in range(m.algebra.dim):
        big = Matrix.zeros(dim, dim)
        for i, row in enumerate(m.action[a].data):
            for j, v in row.items():
                big.data[i][j] = v
        for i, row in enumerate(n.action[a].data):
            for j, v in row.items():
                big.data[m.dim + i][m.dim + j] = v
        action.append(big)
    return LieModule(m.algebra, dim, action)


def _find_equivariant_iso(m, n):
    """Some invertible intertwiner m -> n, or None (small dims only)."""
    if m.dim != n.dim:
        return None
    d = m.dim
    rows = []
    for a in range(m.algebra.dim):
        for i in range(d):
            for j in range(d):
                row = {}
                for k in range(d):
                    v = n.action[a].entry(i, k)
                    if v:
                        row[k * d + j] = row.get(k * d + j, 0) + v
                    v = m.action[a].entry(k, j)
                    if v:
                        row[i * d + k] = row.get(i * d + k, 0) - v
                rows.append({c: v for c, v in row.items() if v})
    basis = kernel_basis(Matrix(len(rows), d * d, rows))

    def as_matrix(vec):
        t = Matrix.zeros(d, d)
        for idx, v in enumerate(vec):
            if v:
                t.data[idx // d][idx % d] = v
        return t

    candidates = [as_matrix(v) for v in basis]
    for t in candidates:
        if t.rank() == d:
            return t
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            t = mat_add(candidates[i], candidates[j])
            if t.rank() == d:
                return t
    return None


def _h1_dimension(h, module) -> int:
    """dim H^1(h, M) = dim ker d^1 - rank d^0."""
    d0 = ce_matrix(h, module, 0)
    d1 = ce_matrix(h, module, 1)
    return (d1.cols - d1.rank()) - d0.rank()


def test_h1_abelian_trivial():
    h = LieAlgebra(3)
    m = trivial_module(h, 2)
    assert _h1_dimension(h, m) == 6


def test_h1_whitehead_sl2():
    g = sl2()
    assert _h1_dimension(g, adjoint_module(g)) == 0
    assert _h1_dimension(g, trivial_module(g)) == 0


def test_h1_zero_module(sl2_borel):
    assert _h1_dimension(sl2_borel.h, trivial_module(sl2_borel.h, 0) if False else _zero_module(sl2_borel.h)) == 0


def _zero_module(h):
    from pbwgate.lie import LieModule

    return LieModule(h, 0, [Matrix.zeros(0, 0) for _ in range(h.dim)])


def test_alpha_sigma_independence():
    # two complements on the diagonal pair give cohomologous obstruction cocycles
    from pbwgate.catalog import catalog_get
    from conftest import diagonal_embedding

    g = catalog_get("diagonal-sl2").algebra()
    p1 = make_pair(g, diagonal_embedding(sl2()))
    p2 = make_pair(g, diagonal_embedding(sl2()), complement=(0, 1, 2))
    assert is_trivial(p1, quotient_module(p1), alpha_difference(p1, p2)) is not None


def test_alpha_sigma_independence_affine():
    from conftest import affine_line

    g = affine_line()
    emb = [[1, 1]]  # h = span{x + y}
    p1 = make_pair(g, emb)
    p2 = make_pair(g, emb, complement=(0,))
    assert is_trivial(p1, quotient_module(p1), alpha_difference(p1, p2)) is not None


# --- the int cochain layer in coordinates with scales above 1 ------------------


def _conjugated_sl2():
    """diagonal-sl2 in a seeded random basis, with the h basis halved: n and
    the modules built from it carry scales above 1, and so does the h table
    (a basis change of g alone leaves h's structure constants integral)."""
    from test_catalog_cli import _conjugated_problem

    pf = _conjugated_problem("diagonal-sl2", 3)
    halved = tuple(tuple(Q(v) / 2 for v in col) for col in pf.h_embedding)
    return ProblemFile(
        pf.name, pf.dim, pf.labels, pf.brackets, pf.h_indices, halved, pf.complement, pf.modules, pf.settings
    ).pair()


def test_ce_differential_matches_the_fraction_reference_over_scales():
    pair = _conjugated_sl2()
    n = quotient_module(pair)
    nn = tensor_module(n, n)
    tscale = pair.h.int_table[1]
    assert tscale > 1
    for mod in (n, nn, hom_module(nn, n)):
        assert mod.scale > 1
        for p in (0, 1, 2):
            rows, scale = ce_differential(pair.h, mod, p)
            assert scale == mod.scale * tscale
            assert ce_matrix(pair.h, mod, p) == reference_ce_differential(pair.h, mod, p), (mod.dim, p)


def test_cocycle_extension_and_primitive_match_the_fraction_route_over_scales():
    pair = _conjugated_sl2()
    n = quotient_module(pair)
    assert alpha_cocycle(pair, n).values == reference_alpha_values(pair, n)
    datum = find_extension(pair, n)
    assert datum is not None and datum.int_rho[1] > 1
    assert _letter_ints(pair)[1] > 1
    assert list(datum.rho[:pair.dim_n]) == reference_extension_rho(pair, n)
    obs = obstruction(pair, n)
    assert obs.primitive is not None
    assert obs.primitive.values == reference_primitive(pair.h, obs.cocycle)
    assert is_trivial(pair, n, obs.cocycle).values == obs.primitive.values


@pytest.mark.parametrize("name", ["conjugated diagonal-sl2", "diagonal-sl2"])
def test_extension_verify_fails_on_a_changed_datum(name):
    # the conjugated pair has letter scale D = 4, the catalog pair D = 1
    pair = _conjugated_sl2() if name.startswith("conjugated") else catalog_get(name).pair()
    n = quotient_module(pair)
    datum = find_extension(pair, n)
    assert datum.verify()
    rho, dn, de = list(datum.rho), pair.dim_n, n.dim
    one = Matrix(de, de, [{0: Q(1)}] + [{} for _ in range(de - 1)])
    # one entry of rho(sigma_0) changed: a bracket law fails
    assert not ExtensionDatum(pair, n, tuple([mat_add(rho[0], one)] + rho[1:])).verify()
    # every matrix conjugated by the shear P = 1 + E_01: each bracket law still
    # holds, but the h-letters act by P act(a) P^-1, not by the module action
    e01 = Matrix(de, de, [{1: Q(1)}] + [{} for _ in range(de - 1)])
    p, p_inv = mat_add(Matrix.identity(de), e01), mat_sub(Matrix.identity(de), e01)
    moved = [matmul(matmul(p, m), p_inv) for m in rho]
    assert moved[dn:] != list(n.action)
    assert not ExtensionDatum(pair, n, tuple(moved)).verify()


def test_obstruction_memo_is_shared_by_equal_actions_over_any_scale():
    pair = _conjugated_sl2()
    n = quotient_module(pair)
    assert n.scale > 1
    # the same action given over three times the scale, and as Fractions
    lifted = LieModule.from_ints(pair.h, n.dim, [[{c: 3 * v for c, v in r.items()} for r in m] for m in n.mats], 3 * n.scale)
    again = LieModule(pair.h, n.dim, n.action)
    assert lifted.scale == again.scale == n.scale
    assert lifted.key() == again.key() == n.key()
    first = obstruction(pair, n)
    assert obstruction(pair, lifted) is first and obstruction(pair, again) is first
    assert len(pair._caches["obstructions"]) == 1
    # the same dimension with another action has its own entry
    other = trivial_module(pair.h, n.dim)
    assert other.key() != n.key()
    assert obstruction(pair, other) is not first
    assert len(pair._caches["obstructions"]) == 2
