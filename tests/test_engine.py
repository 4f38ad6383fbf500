import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.cohomology import find_extension, is_trivial
from pbwgate.engine import (
    AlphaNontrivialError,
    _normal_form,
    ShortExactSequence,
    antipode_word,
    build_filtration,
    coproduct_word,
    dimension_identity_check,
    equivalence_harness,
    f2_class_check,
    gr_check,
    level_sequence,
    pbw_splitting_I,
    reduce_h1,
    section_oracle,
    splitting_s,
    straighten_g,
    t_map,
    twisted_verdict,
)
from pbwgate.lie import (
    ModuleMap,
    adjoint_module,
    make_pair,
    quotient_module,
    tensor_power_module,
    trivial_module,
)
from pbwgate.linalg import Matrix, rref, tensor_map

from conftest import complement_change, diagonal_embedding, sl2
from test_random_pairs import _conjugate, _random_invertible


# --- rewriting -------------------------------------------------------------


def test_straighten_single_letters(sl2_borel):
    # letters: 0 = f (n), 1 = e, 2 = h
    assert straighten_g(sl2_borel, (1,)) == {}  # e lies in U(g)h
    assert straighten_g(sl2_borel, (0,)) == {(0,): Q(1)}


def test_straighten_ef(sl2_borel):
    # e f = f e + h and both monomials carry an h-letter
    assert straighten_g(sl2_borel, (1, 0)) == {}


def test_straighten_fe_kills_h_tail(sl2_borel):
    assert straighten_g(sl2_borel, (0, 1)) == {}


def test_straighten_empty(sl2_borel):
    assert straighten_g(sl2_borel, ()) == {(): Q(1)}


def test_straighten_sorts_n_letters(diag_sl2):
    # two n-letters swap against their bracket, which reduces degree
    got = straighten_g(diag_sl2, (2, 0))
    assert got[(0, 2)] == Q(1)
    assert all(len(w) <= 2 for w in got)


def _add(acc, key, c):
    w = acc.get(key, 0) + c
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _reference_free(pair, word, memo):
    """Free side, written out on its own: move the rightmost h-letter left of
    the trailing h-block one step right."""
    if word in memo:
        return memo[word]
    dn = pair.dim_n
    s = len(word)
    while s > 0 and word[s - 1] >= dn:
        s -= 1
    i = next((k for k in range(s - 1, -1, -1) if word[k] >= dn), None)
    if i is None:
        memo[word] = {(word[:s], word[s:]): Q(1)}
        return memo[word]
    out = {}
    for key, c in _reference_free(pair, word[:i] + (word[i + 1], word[i]) + word[i + 2:], memo).items():
        _add(out, key, c)
    for letter, coeff in pair.bracket_letters(word[i], word[i + 1]).items():
        for key, c in _reference_free(pair, word[:i] + (letter,) + word[i + 2:], memo).items():
            _add(out, key, coeff * c)
    memo[word] = out
    return out


def _reference_straighten(pair, word, memo):
    """Straightened side, written out on its own: swap the leftmost descent;
    a weakly increasing word splits at its first h-letter."""
    if word in memo:
        return memo[word]
    i = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
    if i is None:
        s = 0
        while s < len(word) and word[s] < pair.dim_n:
            s += 1
        memo[word] = {(word[:s], word[s:]): Q(1)}
        return memo[word]
    out = {}
    for key, c in _reference_straighten(pair, word[:i] + (word[i + 1], word[i]) + word[i + 2:], memo).items():
        _add(out, key, c)
    for letter, coeff in pair.bracket_letters(word[i], word[i + 1]).items():
        for key, c in _reference_straighten(pair, word[:i] + (letter,) + word[i + 2:], memo).items():
            _add(out, key, coeff * c)
    memo[word] = out
    return out


def _case_pair(name, seed):
    """A catalog pair, or (with a seed) a conjugated copy of it."""
    pf = catalog_get(name)
    if seed is None:
        return pf.pair()
    return make_pair(*_conjugate(pf, _random_invertible(random.Random(seed), pf.dim)))


@pytest.mark.parametrize("name,seed", [(name, None) for name in catalog_list()] + [("diagonal-heisenberg", 11)])
def test_normal_form_matches_reference_rewriters(name, seed):
    pair = _case_pair(name, seed)
    for side, reference, memo_key in (
        ("F", _reference_free, "free_words"),
        ("R", _reference_straighten, "pbw_words"),
    ):
        memo = {}
        for k in range(5):
            for word in itertools.product(range(pair.g.dim), repeat=k):
                assert _normal_form(pair, side, word) == reference(pair, word, memo), (side, word)
        # the memo visits the same words, so its size is the same work count
        assert set(pair._caches[memo_key]) == set(memo)


def test_reduce_pure_n_word_fixed(diag_sl2):
    w = (2, 0, 1)
    assert reduce_h1(diag_sl2, w) == {w: Q(1)}


def test_reduce_h_letter_dies(sl2_borel):
    assert reduce_h1(sl2_borel, (1,)) == {}
    assert reduce_h1(sl2_borel, (2,)) == {}


def test_reduce_ef(sl2_borel):
    assert reduce_h1(sl2_borel, (1, 0)) == {}


def test_reduce_does_not_sort_n_letters(diag_sl2):
    assert reduce_h1(diag_sl2, (2, 0)) == {(2, 0): Q(1)}


# --- Hopf structure ---------------------------------------------------------


def test_coproduct_unit():
    assert coproduct_word(()) == {((), ()): Q(1)}


def test_coproduct_primitive():
    assert coproduct_word((3,)) == {((3,), ()): Q(1), ((), (3,)): Q(1)}


def test_coproduct_two_letters():
    got = coproduct_word((1, 2))
    assert got == {
        ((1, 2), ()): Q(1),
        ((1,), (2,)): Q(1),
        ((2,), (1,)): Q(1),
        ((), (1, 2)): Q(1),
    }


def test_coproduct_repeated_letter():
    assert coproduct_word((1, 1))[((1,), (1,))] == Q(2)


def test_antipode():
    assert antipode_word(()) == (Q(1), ())
    assert antipode_word((4,)) == (Q(-1), (4,))
    assert antipode_word((1, 2, 3)) == (Q(-1), (3, 2, 1))


# --- filtrations -------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "diag_heis", "abelian_pair", "semidirect_pair"])
def test_dimension_formulas(fixture, request):
    pair = request.getfixturevalue(fixture)
    dn = pair.dim_n
    K = 4
    f = build_filtration(pair, "F", K)
    r = build_filtration(pair, "R", K)
    for k in range(K + 1):
        assert f.dim(k) == sum(dn ** i for i in range(k + 1))
        assert r.dim(k) == sum(math.comb(dn + i - 1, i) for i in range(k + 1))


def test_borel_filtration_dims(sl2_borel):
    f = build_filtration(sl2_borel, "F", 4)
    r = build_filtration(sl2_borel, "R", 4)
    for k in range(5):
        assert f.dim(k) == r.dim(k) == k + 1


@pytest.mark.parametrize("side", ["F", "R"])
@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "semidirect_pair"])
def test_gr_check(side, fixture, request):
    pair = request.getfixturevalue(fixture)
    filt = build_filtration(pair, side, 3)
    for k in range(4):
        assert gr_check(filt, k).ok


def test_gr_check_twisted(sl2_borel):
    n = quotient_module(sl2_borel)
    for side in ("F", "R"):
        filt = build_filtration(sl2_borel, side, 3, coeff=n)
        for k in range(4):
            assert gr_check(filt, k).ok


def test_r_level2_kernel_is_commutators(diag_sl2):
    # tau^2: n (x) n -> gr^2 R kills exactly x (x) y - y (x) x
    pair = diag_sl2
    dn = pair.dim_n
    r = build_filtration(pair, "R", 2)
    rows = {m: i for i, m in enumerate(r.words[r._word_offsets[2]: r._word_offsets[3]])}
    tau = Matrix.zeros(len(rows), dn * dn)
    for i, j in itertools.product(range(dn), repeat=2):
        tau.data[rows[tuple(sorted((i, j)))]][i * dn + j] = Q(1)
    from pbwgate.linalg import kernel_basis

    kern = kernel_basis(tau)
    assert len(kern) == dn * (dn - 1) // 2
    # each kernel vector is antisymmetric: entries at (i,j) and (j,i) cancel
    for v in kern:
        for i in range(dn):
            assert v[i * dn + i] == 0
            for j in range(dn):
                assert v[i * dn + j] == -v[j * dn + i]


def test_gr_independent_of_complement():
    g = sl2().direct_sum(sl2())
    p1 = make_pair(g, diagonal_embedding(sl2()))
    p2 = make_pair(g, diagonal_embedding(sl2()), complement=(0, 1, 2))
    theta = complement_change(p1, p2)
    k = 2
    f1 = build_filtration(p1, "F", k)
    f2 = build_filtration(p2, "F", k)
    from pbwgate.linalg import tensor_map

    big = tensor_map(theta, theta)
    gr1, gr2 = f1.gr_module(k), f2.gr_module(k)
    for a in range(p1.dim_h):
        assert big.mul(gr1.action[a]) == gr2.action[a].mul(big)


# --- dimension identities by rank -------------------------------------------


@pytest.mark.parametrize("side", ["F", "R"])
def test_rank_dimension_identity_small(side, sl2_borel, semidirect_pair, abelian_pair):
    for pair in (sl2_borel, semidirect_pair, abelian_pair):
        rep = dimension_identity_check(pair, side, 4)
        assert rep.ok, rep


@pytest.mark.parametrize("side", ["F", "R"])
def test_rank_dimension_identity_twisted(side, sl2_borel):
    n = quotient_module(sl2_borel)
    rep = dimension_identity_check(sl2_borel, side, 3, coeff=n)
    assert rep.ok, rep


# --- t-maps and the printed formulas ----------------------------------------


def test_t1_appends(diag_sl2):
    rho = find_extension(diag_sl2, quotient_module(diag_sl2))
    # 1 (x) x goes to the one-letter word x
    assert t_map(diag_sl2, rho, 1, {((), (2,)): Q(1)}) == {((2,), ()): Q(1)}
    elem = {((1, 0), (2,)): Q(3)}
    assert t_map(diag_sl2, rho, 1, elem) == {((1, 0, 2), ()): Q(3)}


def test_t2_formula(diag_sl2):
    # t_2(1 (x) (x1 (x) x2)) = x1 (x) x2 - 1 (x) rho(x1) x2
    rho = find_extension(diag_sl2, quotient_module(diag_sl2))
    for i, j in itertools.product(range(3), repeat=2):
        got = t_map(diag_sl2, rho, 2, {((), (i, j)): Q(1)})
        expect = {((i,), (j,)): Q(1)}
        for r in range(3):
            c = rho.rho[i].entry(r, j)
            if c:
                expect[((), (r,))] = expect.get(((), (r,)), Q(0)) - c
        expect = {k: v for k, v in expect.items() if v}
        assert got == expect


def test_t_map_degree_bookkeeping(diag_sl2):
    rho = find_extension(diag_sl2, quotient_module(diag_sl2))
    elem = {((), (0, 1, 2)): Q(1)}
    deg_in = 0
    for k in (3, 2, 1):
        elem = t_map(diag_sl2, rho, k, elem)
        deg_in += 1
        assert all(len(w) <= deg_in for (w, _tup) in elem)
        assert any(len(w) == deg_in for (w, _tup) in elem)


def _printed_s2(pair, rho, x1, x2):
    """The printed two-term formula, evaluated independently of the t-maps."""
    out = {(x1, x2): Q(1)}
    for r in range(pair.dim_n):
        c = rho.rho[x1].entry(r, x2)
        if c:
            out[(r,)] = out.get((r,), Q(0)) - c
    return {w: c for w, c in out.items() if c}


def _printed_s3(pair, rho, x1, x2, x3):
    """Six printed terms: words and letterwise rho applications."""
    dn = pair.dim_n
    out = {}

    def add(word, coeff):
        if coeff:
            out[word] = out.get(word, Q(0)) + coeff
            if not out[word]:
                del out[word]

    add((x1, x2, x3), Q(1))
    for r in range(dn):  # - x1 . (rho(x2) x3)
        add((x1, r), -rho.rho[x2].entry(r, x3))
    for r in range(dn):  # - x2 . (rho(x1) x3)
        add((x2, r), -rho.rho[x1].entry(r, x3))
    m = rho.rho[x2].mul(rho.rho[x1])  # + rho(x2) rho(x1) x3
    for r in range(dn):
        add((r,), m.entry(r, x3))
    for r in range(dn):  # - (rho(x1) x2) . x3
        add((r, x3), -rho.rho[x1].entry(r, x2))
    for r in range(dn):  # + rho(rho(x1) x2) x3
        c = rho.rho[x1].entry(r, x2)
        if c:
            for s in range(dn):
                add((s,), c * rho.rho[r].entry(s, x3))
    return out


@pytest.mark.parametrize("fixture", ["diag_sl2", "diag_heis", "abelian_pair", "semidirect_pair"])
def test_splitting_matches_printed_formulas(fixture, request):
    pair = request.getfixturevalue(fixture)
    rho = find_extension(pair, quotient_module(pair))
    assert rho is not None
    filt = build_filtration(pair, "F", 3)
    s2 = splitting_s(pair, rho, 2, filt=filt)
    s3 = splitting_s(pair, rho, 3, filt=filt)
    dn = pair.dim_n
    for x1, x2 in itertools.product(range(dn), repeat=2):
        col = x1 * dn + x2
        expect = _printed_s2(pair, rho, x1, x2)
        for wpos, w in enumerate(filt.words[: filt._word_offsets[3]]):
            assert s2.matrix.entry(wpos, col) == expect.get(w, Q(0))
    for x1, x2, x3 in itertools.product(range(dn), repeat=3):
        col = (x1 * dn + x2) * dn + x3
        expect = _printed_s3(pair, rho, x1, x2, x3)
        for wpos, w in enumerate(filt.words[: filt._word_offsets[4]]):
            assert s3.matrix.entry(wpos, col) == expect.get(w, Q(0))


def test_splitting_s_k1_is_inclusion(diag_sl2):
    rho = find_extension(diag_sl2, quotient_module(diag_sl2))
    s1 = splitting_s(diag_sl2, rho, 1)
    filt = build_filtration(diag_sl2, "F", 1)
    expected = Matrix.zeros(filt.dim(1), 3)
    for r in range(3):
        expected.data[1 + r][r] = Q(1)
    assert s1.matrix == expected


def test_splitting_s_alpha_nontrivial(sl2_borel):
    with pytest.raises(AlphaNontrivialError):
        splitting_s(sl2_borel, None, 2)


def test_pbw_splitting_borel_fails(sl2_borel):
    with pytest.raises(AlphaNontrivialError):
        pbw_splitting_I(sl2_borel, None, 2)


def test_pbw_splitting_diag_sl2(diag_sl2):
    maps = pbw_splitting_I(diag_sl2, None, 3)
    assert len(maps) == 4
    r = build_filtration(diag_sl2, "R", 3)
    for k, mm in enumerate(maps):
        assert mm.matrix.cols == math.comb(3 + k - 1, k)
        assert mm.matrix.rows == r.dim(k)
        assert mm.is_equivariant()
    # degree one is the identity on n (placed at the degree-1 coordinates)
    expect = Matrix.zeros(r.dim(1), 3)
    for i in range(3):
        expect.data[1 + i][i] = Q(1)
    assert maps[1].matrix == expect


def test_pbw_splitting_square_monomial(semidirect_pair):
    # I_2 on x.x equals straighten(x x - rho(x) x)
    pair = semidirect_pair
    rho = find_extension(pair, quotient_module(pair))
    maps = pbw_splitting_I(pair, rho, 2)
    r = build_filtration(pair, "R", 2)
    dn = pair.dim_n
    from pbwgate.lie import sym_monomials

    monos = sym_monomials(dn, 2)
    for x in range(dn):
        col = monos.index((x, x))
        expect = {}
        for w, c in straighten_g(pair, (x, x)).items():
            expect[w] = expect.get(w, Q(0)) + c
        for r_ in range(dn):
            c = rho.rho[x].entry(r_, x)
            if c:
                for w, c2 in straighten_g(pair, (r_,)).items():
                    expect[w] = expect.get(w, Q(0)) - c * c2
        expect = {w: c for w, c in expect.items() if c}
        for wpos, w in enumerate(r.words[: r._word_offsets[3]]):
            assert maps[2].matrix.entry(wpos, col) == expect.get(w, Q(0))


# --- oracle -------------------------------------------------------------------


def _direct_sum_sequence(pair):
    n = quotient_module(pair)
    t = trivial_module(pair.h, 2)
    dim = n.dim + t.dim
    action = []
    for a in range(pair.dim_h):
        m = Matrix.zeros(dim, dim)
        for i, row in enumerate(n.action[a].data):
            for j, v in row.items():
                m.data[i][j] = v
        action.append(m)
    from pbwgate.lie import LieModule

    mid = LieModule(pair.h, dim, action)
    incl = Matrix.zeros(dim, n.dim)
    for i in range(n.dim):
        incl.data[i][i] = Q(1)
    proj = Matrix.zeros(t.dim, dim)
    for i in range(t.dim):
        proj.data[i][n.dim + i] = Q(1)
    return ShortExactSequence(n, mid, t, incl, proj)


def test_oracle_split_direct_sum(diag_sl2):
    seq = _direct_sum_sequence(diag_sl2)
    s = section_oracle(seq)
    assert s is not None
    assert seq.project.mul(s) == Matrix.identity(seq.quot.dim)


def test_oracle_borel_f2_none(sl2_borel):
    filt = build_filtration(sl2_borel, "F", 2)
    assert section_oracle(level_sequence(filt, 2, reduced=True)) is None


def _rref_solve(a, b):
    """Free-variables-zero solution of ``a x = b`` (sparse ``b`` and ``x``)
    read from the full RREF of the augmented matrix, or None when it is
    inconsistent."""
    aug = a.hstack(Matrix(1, a.rows, [b]).transpose())
    reduced, pivots = rref(aug)
    if a.cols in pivots:
        return None
    return {c: reduced.entry(i, a.cols) for i, c in enumerate(pivots) if reduced.entry(i, a.cols)}


def _from_columns(cols, rows):
    return Matrix(len(cols), rows, cols).transpose()


def _reference_oracle(seq):
    """The oracle's system, solved through full RREFs: a lift s0 of the
    identity, its equivariance defect D_a through the inclusion, then the
    correction t with act_sub(a) t - t act_quot(a) = -D_a, written with
    Kronecker products on row-major vec(t)."""
    nsub, nquot = seq.sub.dim, seq.quot.dim
    s0 = _from_columns([_rref_solve(seq.project, {j: Q(1)}) for j in range(nquot)], seq.mid.dim)
    if nsub == 0:
        return s0
    blocks, rhs = [], {}
    for a in range(seq.sub.algebra.dim):
        residual = seq.mid.action[a].mul(s0) - s0.mul(seq.quot.action[a])
        d = _from_columns([_rref_solve(seq.include, col) for col in residual.transpose().data], nsub)
        blocks.append(
            tensor_map(seq.sub.action[a], Matrix.identity(nquot))
            - tensor_map(Matrix.identity(nsub), seq.quot.action[a].transpose())
        )
        offset = a * nsub * nquot
        rhs.update((offset + i * nquot + j, -v) for i, row in enumerate(d.data) for j, v in row.items())
    system = blocks[0]
    for block in blocks[1:]:
        system = system.vstack(block)
    t = _rref_solve(system, rhs)
    if t is None:
        return None
    t_mat = Matrix.zeros(nsub, nquot)
    for c, v in t.items():
        t_mat.data[c // nquot][c % nquot] = v
    return s0 + seq.include.mul(t_mat)


# every catalog pair but the negative control, which is not a Lie algebra and
# has no filtration, plus seeded conjugated copies (seed None: catalog basis)
ORACLE_CASES = [(name, None) for name in catalog_list() if not catalog_get(name).expect_invalid] + [
    ("semidirect-split", 5),
    ("diagonal-heisenberg", 11),
]


@pytest.mark.parametrize("name,seed", ORACLE_CASES)
def test_oracle_matches_full_rref_reference(name, seed):
    pair = _case_pair(name, seed)
    class_trivial = is_trivial(pair, quotient_module(pair)) is not None
    denominators = set()
    for side in "FR":
        filt = build_filtration(pair, side, 3)
        for k in (2, 3):
            seq = level_sequence(filt, k, reduced=True)
            got = section_oracle(seq)
            assert got == _reference_oracle(seq), (side, k)
            assert (got is None) == (not class_trivial), (side, k)
            for module in (seq.sub, seq.quot):
                denominators.update(v.denominator for m in module.action for r in m.data for v in r.values())
    # the conjugated copies keep the oracle's common-denominator path covered:
    # their actions hold non-integer entries (the catalog's are integers)
    if seed is not None:
        assert max(denominators) > 1


def test_f2_class_check(sl2_borel, semidirect_pair, abelian_pair):
    rep = f2_class_check(sl2_borel)
    assert rep.iso_ok and rep.ok
    assert not rep.q_splits and not rep.f2_splits and not rep.alpha_trivial
    for pair in (semidirect_pair, abelian_pair):
        rep = f2_class_check(pair)
        assert rep.iso_ok and rep.ok
        assert rep.q_splits and rep.f2_splits and rep.alpha_trivial


# --- harnesses -----------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture,expected",
    [
        ("sl2_borel", False),
        ("abelian_pair", True),
        ("semidirect_pair", True),
    ],
)
def test_equivalence_harness_small(fixture, expected, request):
    pair = request.getfixturevalue(fixture)
    rep = equivalence_harness(pair, K=4)
    assert rep.alpha_trivial == expected
    assert rep.ok


def test_equivalence_harness_diag_heis_k3(diag_heis):
    rep = equivalence_harness(diag_heis, K=3)
    assert rep.alpha_trivial
    assert rep.ok


def test_twisted_trivial_coefficients_reduce(sl2_borel):
    rep = twisted_verdict(sl2_borel, trivial_module(sl2_borel.h), 3)
    assert not rep.alpha_trivial
    assert rep.alpha_v_trivial
    assert rep.ok
    assert not rep.f_levels[2] and not rep.r_levels[2]


def test_twisted_borel_n(sl2_borel):
    rep = twisted_verdict(sl2_borel, quotient_module(sl2_borel), 3)
    assert not rep.alpha_trivial and not rep.alpha_v_trivial
    assert rep.ok
    assert not rep.f_levels[1]  # level one already fails: its class is alpha_V


def test_twisted_semidirect_with_n(semidirect_pair):
    rep = twisted_verdict(semidirect_pair, quotient_module(semidirect_pair), 3)
    assert rep.alpha_trivial and rep.alpha_v_trivial
    assert rep.observed_all_split and rep.ok
