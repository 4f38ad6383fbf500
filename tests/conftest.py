from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get
from pbwgate.cohomology import Cochain, NotACocycleError, alpha_cocycle, ce_differential, is_trivial, obstruction
from pbwgate.lie import LieAlgebra, hom_module, make_pair, quotient_module, tensor_module
from pbwgate.linalg import Matrix, solve, tensor_map


def sl2() -> LieAlgebra:
    # basis (e, h, f): [e,f] = h, [h,e] = 2e, [h,f] = -2f
    return LieAlgebra.from_pairs(
        3,
        [
            (0, 2, {1: 1}),
            (1, 0, {0: 2}),
            (1, 2, {2: -2}),
        ],
        labels=("e", "h", "f"),
    )


def heisenberg() -> LieAlgebra:
    # basis (p, q, z): [p,q] = z
    return LieAlgebra.from_pairs(3, [(0, 1, {2: 1})], labels=("p", "q", "z"))


def affine_line() -> LieAlgebra:
    # basis (x, y): [x,y] = y
    return LieAlgebra.from_pairs(2, [(0, 1, {1: 1})], labels=("x", "y"))


def system(a: Matrix, b: dict) -> tuple:
    """``(rows, bcol)`` of the system a x = b for ``linalg.solve``: each row
    of ``a`` with its entry of ``b`` in column ``a.cols``."""
    rows = [dict(r) for r in a.data]
    for i, v in b.items():
        rows[i][a.cols] = v
    return rows, a.cols


def invert(m: Matrix) -> Matrix:
    """The inverse of an invertible matrix, one ``solve`` per column."""
    cols = []
    for j in range(m.rows):
        x = solve(*system(m, {j: Q(1)}))
        assert x is not None
        cols.append(x)
    return Matrix(len(cols), m.cols, cols).transpose()


def complement_change(p1, p2) -> Matrix:
    """theta: n1 -> n2, whose columns are the n2-coordinates of sigma1."""
    dn = p2.dim_n
    cols = [{r: v for r, v in p2.letter_coords(col).items() if r < dn} for col in p1.sigma.transpose().data]
    return Matrix(len(cols), dn, cols).transpose()


def alpha_difference(p1, p2) -> Cochain:
    """The obstruction cocycle of p1 minus that of p2 transported along
    theta; a coboundary when the class does not depend on the complement."""
    theta = complement_change(p1, p2)
    theta_inv = invert(theta)
    a1 = alpha_cocycle(p1, quotient_module(p1))
    a2 = alpha_cocycle(p2, quotient_module(p2))
    dn = p1.dim_n
    transported = Matrix.zeros(a1.module.dim, p1.dim_h)
    for z in range(p1.dim_h):
        phi1 = theta_inv.mul(a2.hom_value(z, dn, dn * dn)).mul(tensor_map(theta, theta))
        for i, row in enumerate(phi1.data):
            for j, v in row.items():
                transported.data[i * dn * dn + j][z] = v
    return Cochain(1, a1.module, a1.values - transported)


def wedge_restriction_is_exact(pair, cocycle=None) -> bool:
    """Whether the obstruction cocycle restricted to wedge^2 n is a
    coboundary (the class factors through the symmetric square);
    NotACocycleError when the given cochain is not closed.

    Hom(wedge^2 n, n) is the summand Hom(n (x) n, n) . A of the cocycle's
    own coefficient module, A = (1 - swap) / 2 the antisymmetrizer of
    n (x) n; precomposing with the equivariant idempotent A commutes with
    the differential, so a . A is exact in the summand iff it is exact in
    Hom(n (x) n, n)."""
    n_mod = quotient_module(pair)
    if cocycle is None:
        cocycle = obstruction(pair, n_mod).cocycle
    elif ce_differential(pair.h, cocycle.module, 1).apply(cocycle.vec()):
        raise NotACocycleError("cochain is not closed")
    dn = pair.dim_n
    anti = Matrix.zeros(dn * dn, dn * dn)
    for i in range(dn):
        for j in range(dn):
            if i != j:
                anti.data[i * dn + j][i * dn + j] = Q(1, 2)
                anti.data[i * dn + j][j * dn + i] = Q(-1, 2)
    coeff = hom_module(tensor_module(n_mod, n_mod), n_mod)
    values = Matrix.zeros(coeff.dim, pair.dim_h)
    for z in range(pair.dim_h):
        for i, row in enumerate(cocycle.hom_value(z, dn, dn * dn).mul(anti).data):
            for j, v in row.items():
                values.data[i * dn * dn + j][z] = v
    return is_trivial(pair, n_mod, Cochain(1, coeff, values)) is not None


def _fraction_product(a: Matrix, b: Matrix) -> list:
    """The rows of a b, every product and sum taken in Fractions."""
    out = []
    for r in a.data:
        acc = {}
        for k, v in r.items():
            for c, w in b.data[k].items():
                acc[c] = acc.get(c, Q(0)) + v * w
        out.append({c: x for c, x in acc.items() if x})
    return out


def reference_compatibility_defects(mod) -> list:
    """``LieModule.compatibility_defects`` in Fractions: the pairs (i, j)
    where action([x_i, x_j]) != [action(x_i), action(x_j)]."""
    bad = []
    alg = mod.algebra
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = mod.act_vec(alg.table[i][j])
            ij = Matrix(mod.dim, mod.dim, _fraction_product(mod.action[i], mod.action[j]))
            ji = Matrix(mod.dim, mod.dim, _fraction_product(mod.action[j], mod.action[i]))
            if lhs != ij - ji:
                bad.append((i, j))
    return bad


def reference_is_equivariant(f) -> bool:
    """``ModuleMap.is_equivariant`` in Fractions: M A_i == B_i M for each i."""
    for i in range(f.source.algebra.dim):
        if _fraction_product(f.matrix, f.source.action[i]) != _fraction_product(f.target.action[i], f.matrix):
            return False
    return True


def diagonal_embedding(alg: LieAlgebra):
    cols = []
    for i in range(alg.dim):
        col = [Q(0)] * (2 * alg.dim)
        col[i] = Q(1)
        col[alg.dim + i] = Q(1)
        cols.append(col)
    return cols


@pytest.fixture
def sl2_borel():
    return make_pair(sl2(), [0, 1])


@pytest.fixture
def diag_sl2():
    return catalog_get("diagonal-sl2").pair()


@pytest.fixture
def diag_heis():
    return catalog_get("diagonal-heisenberg").pair()


@pytest.fixture
def abelian_pair():
    g = LieAlgebra(3, labels=("a", "b", "c"))
    return make_pair(g, [0])


@pytest.fixture
def semidirect_pair():
    # h = span{t} acting on the abelian ideal span{x, y} by rotation
    g = LieAlgebra.from_pairs(
        3,
        [
            (0, 1, {2: 1}),
            (0, 2, {1: -1}),
        ],
        labels=("t", "x", "y"),
    )
    return make_pair(g, [0])
