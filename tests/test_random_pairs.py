"""Property tests on randomized valid pairs.

Random structure constants rarely satisfy the Jacobi identity, so random
*valid* pairs are produced by conjugating catalog pairs with random
invertible rational basis changes: the result is an isomorphic inclusion in
scrambled coordinates, which exercises the adapted-basis machinery, and all
basis-independent verdicts must be unchanged.
"""

import random
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get
from pbwgate.cohomology import alpha_cocycle, connecting_cocycle, is_trivial
from pbwgate.engine import build_filtration, level_sequence
from pbwgate.koszul import bg_conditions
from pbwgate.lie import LieAlgebra, make_pair, quotient_module, validate_lie
from pbwgate.linalg import Matrix
from pbwgate.report import _check_koszul

from conftest import bracket, ce_matrix, invert, matmul


def _random_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def _conjugate(pf, p_mat):
    """The same inclusion written in the basis P e_i."""
    alg = pf.algebra()
    p_inv = invert(p_mat)
    dg = alg.dim
    p_cols = p_mat.transpose().data
    table = [[p_inv.apply(bracket(alg, xi, xj)) for xj in p_cols] for xi in p_cols]
    conj = LieAlgebra(dg, alg.labels, table)
    return conj, matmul(p_inv, pf.pair().h_embedding)


CASES = [("sl2-borel", 3), ("semidirect-split", 5), ("diagonal-heisenberg", 11)]


@pytest.mark.parametrize("name,seed", CASES)
def test_conjugated_pair_properties(name, seed):
    rng = random.Random(seed)
    pf = catalog_get(name)
    base_pair = pf.pair()
    base_verdict = is_trivial(base_pair, quotient_module(base_pair)) is not None
    base_koszul = _check_koszul(pf, base_pair, 3).to_dict()
    assert base_koszul["ok"]
    for _ in range(3):
        p_mat = _random_invertible(rng, pf.dim)
        conj, emb = _conjugate(pf, p_mat)
        assert validate_lie(conj).ok
        pair = make_pair(conj, emb)
        assert pair.dim_n == base_pair.dim_n
        n_mod = quotient_module(pair)
        assert not n_mod.compatibility_defects()
        # the cocycle identities, checked explicitly rather than by the
        # constructors' internal assertions
        c = connecting_cocycle(pair)
        a = alpha_cocycle(pair, n_mod)
        for cochain in (c, a):
            d1 = ce_matrix(pair.h, cochain.module, 1)
            assert not d1.apply(cochain.vec())
        # basis-independent verdicts
        assert (is_trivial(pair, n_mod, a) is not None) == base_verdict
        assert bg_conditions(pair) == (True, True)
        # the koszul record (conditions, graded dimensions, slices) is the same
        assert _check_koszul(pf, pair, 3).to_dict() == base_koszul
        dn = pair.dim_n
        filt = build_filtration(pair, "F", 2)
        assert [filt.dim(k) for k in range(3)] == [1, 1 + dn, 1 + dn + dn * dn]
        for k in range(3):
            level_sequence(filt, k).validate()  # raises unless gr_k is the tensor power


def test_conjugated_pair_harness_small():
    # one deeper run on a scrambled three-dimensional pair
    from pbwgate.engine import equivalence_harness

    rng = random.Random(23)
    pf = catalog_get("semidirect-split")
    p_mat = _random_invertible(rng, 3)
    conj, emb = _conjugate(pf, p_mat)
    pair = make_pair(conj, emb)
    rep = equivalence_harness(pair, K=3)
    assert rep.alpha_trivial
    assert rep.ok
