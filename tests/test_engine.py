import itertools
import math
import random
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from pbwgate.catalog import catalog_get, catalog_list
from pbwgate.cohomology import find_extension, is_trivial
from pbwgate.engine import (
    AlphaNontrivialError,
    FilteredModule,
    _letter_ints,
    _normal_form,
    _rho_apply,
    ShortExactSequence,
    build_filtration,
    coproduct_word,
    dimension_identity_check,
    equivalence_harness,
    f2_class_check,
    h_stable_complement,
    level_sequence,
    level_splits,
    level_system_shape,
    oracle_splits,
    pbw_splitting_I,
    section_oracle,
    splitting_s,
    t_map,
    twisted_verdict,
)
from pbwgate.lie import (
    LieModule,
    ModuleMap,
    adjoint_module,
    make_pair,
    quotient_module,
    trivial_module,
)
from pbwgate.linalg import Matrix, rref
from pbwgate.problem import parse_problem

from conftest import (
    _drop_h_tails,
    bracket_letters,
    complement_change,
    diagonal_embedding,
    hstack,
    mat_add,
    mat_sub,
    matmul,
    reference_dimension_ranks,
    reference_h_stable_complement,
    reference_pbw_splitting_I,
    sl2,
    straighten_g,
    straightening,
    symmetrization,
    tensor_map,
)
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
    for letter, coeff in bracket_letters(pair, word[i], word[i + 1]).items():
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
    for letter, coeff in bracket_letters(pair, word[i], word[i + 1]).items():
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


CONJUGATED_CASES = [("diagonal-heisenberg", 11), ("diagonal-sl2", 3)]
CONJUGATED_DIAGONAL_SL2 = Path(__file__).parent / "data" / "diagonal-sl2-conjugated-3.json"


@pytest.mark.parametrize("name,seed", [(name, None) for name in catalog_list()] + CONJUGATED_CASES)
def test_normal_form_matches_reference_rewriters(name, seed):
    pair = _case_pair(name, seed)
    if seed is not None:
        # the letter brackets carry denominators, so the memo's ints sit over
        # a scale D^len(word) with D > 1
        assert _letter_ints(pair)[1] > 1
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


def _reference_actions(pair, side, K, coeff):
    """The h-actions on the degree-K filtration with coefficients, built in
    Fractions from the reference rewriters and the h-tail actions."""
    reference = _reference_free if side == "F" else _reference_straighten
    dn, vdim = pair.dim_n, coeff.dim
    if side == "F":
        words = [w for k in range(K + 1) for w in itertools.product(range(dn), repeat=k)]
    else:
        words = [w for k in range(K + 1) for w in itertools.combinations_with_replacement(range(dn), k)]
    index = {w: i for i, w in enumerate(words)}
    memo = {}
    actions = []
    for a in range(pair.dim_h):
        mat = Matrix.zeros(len(words) * vdim, len(words) * vdim)
        for wpos, w in enumerate(words):
            for (nw, htail), c in reference(pair, (dn + a,) + w, memo).items():
                tail = Matrix.identity(coeff.dim)
                for letter in reversed(htail):
                    tail = matmul(coeff.action[letter - dn], tail)
                for i, row in enumerate(tail.data):
                    for v, x in row.items():
                        _add(mat.data[index[nw] * vdim + i], wpos * vdim + v, c * x)
        actions.append(mat)
    return actions


@pytest.mark.parametrize("side", ["F", "R"])
@pytest.mark.parametrize(
    "name,seed", [(name, None) for name in catalog_list() if not catalog_get(name).expect_invalid] + CONJUGATED_CASES
)
def test_action_matrices_with_coefficients_match_reference(name, seed, side):
    # the derivation rule, one degree at a time, against the whole words
    # (a,) + w rewritten in Fractions: trivial coefficients at K = 4, the
    # modules n and adjoint at K = 3
    pair = _case_pair(name, seed)
    n_module = quotient_module(pair)
    if seed is not None:
        # both the letter scale and the coefficient action carry denominators
        assert _letter_ints(pair)[1] > 1
        assert any(v.denominator > 1 for m in n_module.action for row in m.data for v in row.values())
    for coeff, K in ((None, 4), (n_module, 3), (adjoint_module(pair.h), 3)):
        filt = FilteredModule(pair, side, K, coeff)
        reference = _reference_actions(pair, side, K, trivial_module(pair.h) if coeff is None else coeff)
        assert list(filt.module.action) == reference, (K, filt.vdim)


def _free_n_words(pair, word):
    """The free-side normal form with its h-tail terms dropped."""
    return _drop_h_tails(_normal_form(pair, "F", word))


def test_reduce_pure_n_word_fixed(diag_sl2):
    w = (2, 0, 1)
    assert _free_n_words(diag_sl2, w) == {w: Q(1)}


def test_reduce_h_letter_dies(sl2_borel):
    assert _free_n_words(sl2_borel, (1,)) == {}
    assert _free_n_words(sl2_borel, (2,)) == {}


def test_reduce_ef(sl2_borel):
    assert _free_n_words(sl2_borel, (1, 0)) == {}


def test_reduce_does_not_sort_n_letters(diag_sl2):
    assert _free_n_words(diag_sl2, (2, 0)) == {(2, 0): Q(1)}


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
    # rho(S(x_1 ... x_m)) = (-1)^m rho(x_m) ... rho(x_1): the signed reversal,
    # on generic matrices so that the order of the letters shows
    rng = random.Random(5)
    mats = [Matrix.from_rows([[Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]) for _ in range(5)]
    for j in range(3):
        assert _rho_apply(mats, (), j, antipode=True) == {j: Q(1)}
        assert _rho_apply(mats, (4,), j, antipode=True) == {i: -v for i, v in mats[4].apply({j: Q(1)}).items()}
        reversed_word = mats[3].apply(mats[2].apply(mats[1].apply({j: Q(1)})))
        assert _rho_apply(mats, (3, 2, 1), j) == reversed_word
        assert _rho_apply(mats, (1, 2, 3), j, antipode=True) == {i: -v for i, v in reversed_word.items()}
    assert any(_rho_apply(mats, (1, 2, 3), j) != _rho_apply(mats, (3, 2, 1), j) for j in range(3))


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
    # the projection F^k -> gr_k onto the tensor (resp. symmetric) power is
    # equivariant and exact: gr_k is that power as an h-module
    pair = request.getfixturevalue(fixture)
    filt = build_filtration(pair, side, 3)
    for k in range(4):
        level_sequence(filt, k).validate()


def test_gr_check_twisted(sl2_borel):
    n = quotient_module(sl2_borel)
    for side in ("F", "R"):
        filt = build_filtration(sl2_borel, side, 3, coeff=n)
        for k in range(4):
            level_sequence(filt, k).validate()


@pytest.mark.parametrize(
    "defect,message",
    [
        ("action", "not equivariant"),
        ("dimension", "not exact"),
        ("sub", "inclusion is not equivariant"),
        ("corner", "submodule is not stable"),
    ],
)
def test_gr_check_fails_on_a_wrong_graded_piece(defect, message, abelian_pair):
    # validate checks each block of the middle actions: a graded piece whose
    # action or dimension is not the tensor power's (here: zero actions), a
    # wrong submodule block, or an action leaving the submodule is rejected
    seq = level_sequence(build_filtration(abelian_pair, "F", 2), 2)
    quot, sub = seq.quot, seq.sub
    if defect == "action":
        wrong = LieModule(quot.algebra, quot.dim, [mat_add(m, Matrix.identity(quot.dim)) for m in quot.action])
        seq = ShortExactSequence(seq.sub, seq.mid, wrong)
    elif defect == "dimension":
        seq = ShortExactSequence(seq.sub, seq.mid, trivial_module(quot.algebra, quot.dim + 1))
    elif defect == "sub":
        wrong = LieModule(sub.algebra, sub.dim, [mat_add(m, Matrix.identity(sub.dim)) for m in sub.action])
        seq = ShortExactSequence(wrong, seq.mid, seq.quot)
    else:
        corner = Matrix.zeros(seq.mid.dim, seq.mid.dim)
        corner.data[sub.dim][0] = Q(1)
        mid = LieModule(sub.algebra, seq.mid.dim, [mat_add(m, corner) for m in seq.mid.action])
        seq = ShortExactSequence(seq.sub, mid, seq.quot)
    with pytest.raises(ValueError, match=message):
        seq.validate()


BLOCK_ROW_FAULTS = [
    ("top-extra", "inclusion is not equivariant"),
    ("top-missing", "inclusion is not equivariant"),
    ("top-value", "inclusion is not equivariant"),
    ("bottom-extra", "projection is not equivariant"),
    ("bottom-missing", "projection is not equivariant"),
    ("bottom-value", "projection is not equivariant"),
]


@pytest.mark.parametrize("fault,message", BLOCK_ROW_FAULTS, ids=[fault for fault, _ in BLOCK_ROW_FAULTS])
def test_gr_check_compares_block_rows_over_their_scales(fault, message):
    # F^1 -> F^2 -> gr_2 of a conjugated diagonal-sl2 holds its modules over
    # the scales 2, 4 and 2.  One entry of a middle action added, dropped or
    # changed in the sub-columns of a top row, or in a bottom row, breaks the
    # block form; a dropped top entry is seen only by counting the row's
    # sub-column entries, a bottom one only by the row's length
    seq = level_sequence(build_filtration(_case_pair("diagonal-sl2", 3), "F", 2), 2)
    seq.validate()
    nsub, mid = seq.sub.dim, seq.mid
    assert 1 < seq.sub.scale != mid.scale != seq.quot.scale > 1
    mats = [[dict(r) for r in m] for m in mid.mats]
    block = range(nsub) if fault.startswith("top") else range(nsub, mid.dim)
    extra = fault.endswith("extra")
    row, c = next((row, c) for m in mats for row in (m[r] for r in block) for c in block if (c in row) != extra)
    if extra:
        row[c] = 1
    elif fault.endswith("missing"):
        del row[c]
    else:
        row[c] *= 2
    broken = ShortExactSequence(seq.sub, LieModule.from_ints(mid.algebra, mid.dim, mats, mid.scale), seq.quot)
    with pytest.raises(ValueError, match=message):
        broken.validate()


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
    g = catalog_get("diagonal-sl2").algebra()
    p1 = make_pair(g, diagonal_embedding(sl2()))
    p2 = make_pair(g, diagonal_embedding(sl2()), complement=(0, 1, 2))
    theta = complement_change(p1, p2)
    k = 2
    f1 = build_filtration(p1, "F", k)
    f2 = build_filtration(p2, "F", k)
    big = tensor_map(theta, theta)
    gr1, gr2 = (f._slice(f.dim(k - 1), f.dim(k)) for f in (f1, f2))
    for a in range(p1.dim_h):
        assert matmul(big, gr1.action[a]) == matmul(gr2.action[a], big)


# --- dimension identities by rank -------------------------------------------


@pytest.mark.parametrize("side", ["F", "R"])
def test_rank_dimension_identity_small(side, sl2_borel, semidirect_pair, abelian_pair):
    for pair in (sl2_borel, semidirect_pair, abelian_pair):
        rep = dimension_identity_check(pair, side, 4)
        assert rep.ok, rep


# the rank codimensions over the words that are empty or end in an n-letter,
# the placements whose right factor ends in an h-letter skipped, against the
# elimination over every word of g (``reference_dimension_ranks``)
LIE_PAIRS = [name for name in catalog_list() if not catalog_get(name).expect_invalid]


@pytest.mark.parametrize("name", LIE_PAIRS)
def test_dimension_ranks_match_the_full_ambient_elimination(name):
    pair = catalog_get(name).pair()
    for side in "FR":
        rep = dimension_identity_check(pair, side, 4)
        assert rep.rank_codims == reference_dimension_ranks(pair, side, 4), side
        assert rep.ok, (side, rep)


@pytest.mark.parametrize("side", ["F", "R"])
@pytest.mark.parametrize("name", LIE_PAIRS)
def test_dimension_record_at_a_lower_cap_is_a_prefix_of_the_record_at_k4(name, side):
    # the columns run from the top degree down, so they are numbered afresh
    # for each cap; the rank after stage k must still be that of the degree
    # <= k relation span, whatever the cap
    pair = catalog_get(name).pair()
    top = dimension_identity_check(pair, side, 4)
    for K in range(4):
        rep = dimension_identity_check(pair, side, K)
        assert rep.rank_codims == top.rank_codims[: K + 1], K
        assert rep.expected == top.expected[: K + 1], K
        assert rep.ok, (K, rep)


def test_dimension_record_runs_one_elimination_per_pair_and_cap(monkeypatch):
    # one staged elimination serves both sides; the second side's call reads
    # the cached codimensions, and another cap is eliminated afresh
    from pbwgate import engine as engine_mod

    calls = []
    real = engine_mod._rank_codims
    monkeypatch.setattr(engine_mod, "_rank_codims", lambda pair, K: calls.append(K) or real(pair, K))
    pair = catalog_get("diagonal-heisenberg").pair()
    reps = [dimension_identity_check(pair, side, K) for K in (4, 3) for side in "FR"]
    assert calls == [4, 3]
    assert [rep.ok for rep in reps] == [True] * 4


@pytest.mark.parametrize("name,seed", [("diagonal-sl2", "committed"), ("semidirect-split", 5), ("diagonal-heisenberg", 11)])
def test_dimension_ranks_match_the_full_ambient_elimination_in_conjugated_coordinates(name, seed):
    if seed == "committed":
        pair = parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair()
    else:
        pair = _case_pair(name, seed)
    assert _letter_ints(pair)[1] > 1
    # K = 4, the oracle's default cap
    for side in "FR":
        rep = dimension_identity_check(pair, side, 4)
        assert rep.rank_codims == reference_dimension_ranks(pair, side, 4), side
        assert rep.ok, (side, rep)


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


# every catalog pair but these has a trivial class, hence a splitting
_NO_SPLITTING = {"sl2-borel": "non-trivial class", "jacobi-broken-negative-control": "not a Lie algebra"}


@pytest.mark.parametrize(
    "name,seed",
    [(name, None) for name in catalog_list() if name not in _NO_SPLITTING] + CONJUGATED_CASES + [("semidirect-split", 1)],
)
def test_connection_recursion_equals_the_straightened_symmetrized_chain(name, seed):
    # I_k = canon . s_k . Sym_k: the recursion's sections against the paper's
    # t-map section of each symmetrized monomial, straightened; the seeded
    # copies have rho nonzero on n and a datum scale T > 1
    pair = _case_pair(name, seed)
    rho = find_extension(pair, quotient_module(pair))
    if seed is not None:
        assert rho.int_rho[1] > 1
    f_filt, r_filt = build_filtration(pair, "F", 4), build_filtration(pair, "R", 4)
    maps = pbw_splitting_I(pair, rho, 4)
    for k in range(5):
        s_k = splitting_s(pair, rho, k, filt=f_filt).matrix
        expected = matmul(matmul(straightening(pair, f_filt, r_filt, k), s_k), symmetrization(pair.dim_n, k))
        assert maps[k].matrix == expected, k


@pytest.mark.parametrize(
    "name,seed,K",
    [(name, None, 5) for name in catalog_list() if name not in _NO_SPLITTING]
    + [("committed-file", None, 4), ("diagonal-heisenberg", 1, 4), ("diagonal-sl2", 4, 4)],
)
def test_int_recursion_equals_the_fraction_reference(name, seed, K):
    # the int recursion over S_k against the Fraction recursion, entry for
    # entry; the conjugated copies (the committed file among them) have
    # letter and datum scales D, T > 1 and rho nonzero on n
    from test_catalog_cli import _conjugated_problem

    if name == "committed-file":
        pair = parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair()
    elif seed is None:
        pair = catalog_get(name).pair()
    else:
        pair = _conjugated_problem(name, seed).pair()
    rho = find_extension(pair, quotient_module(pair))
    if name == "committed-file" or seed is not None:
        assert _letter_ints(pair)[1] > 1 and rho.int_rho[1] > 1
        assert any(rho.int_rho[0][x][y] for x in range(pair.dim_n) for y in range(pair.dim_n))
    maps = pbw_splitting_I(pair, rho, K)
    assert [m.matrix for m in maps] == reference_pbw_splitting_I(pair, rho, K)


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
    m = matmul(rho.rho[x2], rho.rho[x1])  # + rho(x2) rho(x1) x3
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


@pytest.mark.parametrize(
    "case",
    ["diag_sl2", "diag_heis", "abelian_pair", "semidirect_pair"] + CONJUGATED_CASES + [("semidirect-split", 1)],
    ids=lambda case: case if isinstance(case, str) else "%s-%s" % case,
)
def test_splitting_matches_printed_formulas(case, request):
    # the fixtures are in catalog coordinates, where the datum scale is T = 1;
    # the seeded copies have a datum with denominators
    pair = request.getfixturevalue(case) if isinstance(case, str) else _case_pair(*case)
    rho = find_extension(pair, quotient_module(pair))
    assert rho is not None
    if not isinstance(case, str):
        assert rho.int_rho[1] > 1
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

    return ShortExactSequence(n, LieModule(pair.h, dim, action), t)


def test_oracle_split_direct_sum(diag_sl2):
    seq = _direct_sum_sequence(diag_sl2)
    s = section_oracle(seq)
    assert s is not None
    # the projection onto the last coordinates takes s to the identity
    assert s.matrix.take(range(seq.sub.dim, seq.mid.dim), range(seq.quot.dim)) == Matrix.identity(seq.quot.dim)


def test_oracle_borel_f2_none(sl2_borel):
    filt = build_filtration(sl2_borel, "F", 2)
    assert section_oracle(level_sequence(filt, 2, reduced=True)) is None


def _jordan_sequence(pair, corner):
    """0 -> Q -> Q^2 -> Q -> 0 with every h element acting on the middle by
    [[0, corner], [0, 0]]: split exactly when ``corner`` is 0."""
    line = trivial_module(pair.h)
    block = Matrix.from_rows([[0, corner], [0, 0]])
    mid = LieModule(pair.h, 2, [block] * pair.dim_h)
    return ShortExactSequence(line, mid, line)


def test_oracle_verdicts_are_memoised_by_the_level_address(diag_sl2, abelian_pair, monkeypatch):
    from pbwgate import engine as engine_mod

    real = engine_mod.section_oracle
    solved = []

    def counted(seq, *args):
        solved.append(seq)
        return real(seq, *args)

    def unbuilt(*args):
        raise AssertionError("a known address built its sequence")

    monkeypatch.setattr(engine_mod, "section_oracle", counted)
    # level 2 asked through a K=2 and a K=4 filtration: one address, one call
    for K in (2, 4):
        assert level_splits(FilteredModule(diag_sl2, "R", K), 2, reduced=True)
    assert len(solved) == 1
    # the free level 1 with coefficients in n is the reduced free level 2 (rule B)
    assert level_splits(build_filtration(diag_sl2, "F", 2), 2, reduced=True)
    assert len(solved) == 2
    assert level_splits(build_filtration(diag_sl2, "F", 1, coeff=quotient_module(diag_sl2)), 1)
    assert len(solved) == 2
    # the memo belongs to the pair: another pair solves the same address afresh
    other = catalog_get("diagonal-sl2").pair()
    assert level_splits(FilteredModule(other, "R", 2), 2, reduced=True)
    assert len(solved) == 3
    # a known address never builds its sequence again
    monkeypatch.setattr(engine_mod, "level_sequence", unbuilt)
    for pair in (diag_sl2, other):
        assert level_splits(FilteredModule(pair, "R", 3), 2, reduced=True)
    assert level_splits(FilteredModule(diag_sl2, "F", 1, quotient_module(diag_sl2)), 1)
    assert oracle_splits(abelian_pair, ("J", None, 1, False), lambda: _jordan_sequence(abelian_pair, 1)) is False
    assert oracle_splits(abelian_pair, ("J", None, 1, False), unbuilt) is False
    assert len(solved) == 4


def _rref_solve(a, b):
    """Free-variables-zero solution of ``a x = b`` (sparse ``b`` and ``x``)
    read from the full RREF of the augmented matrix, or None when it is
    inconsistent."""
    aug = hstack(a, Matrix(1, a.rows, [b]).transpose())
    reduced, pivots = rref(aug)
    if a.cols in pivots:
        return None
    return {c: reduced.entry(i, a.cols) for i, c in enumerate(pivots) if reduced.entry(i, a.cols)}


def _from_columns(cols, rows):
    return Matrix(len(cols), rows, cols).transpose()


def _reference_oracle(seq):
    """The oracle's system, solved through full RREFs: a lift s0 of the
    identity through the projection, its equivariance defect D_a through the
    inclusion (both coordinate maps of the block form, built here), then the
    correction t with act_sub(a) t - t act_quot(a) = -D_a, written with
    Kronecker products on row-major vec(t)."""
    nsub, nquot = seq.sub.dim, seq.quot.dim
    ident = Matrix.identity(seq.mid.dim)
    include = ident.take(range(seq.mid.dim), range(nsub))
    project = ident.take(range(nsub, seq.mid.dim), range(seq.mid.dim))
    s0 = _from_columns([_rref_solve(project, {j: Q(1)}) for j in range(nquot)], seq.mid.dim)
    if nsub == 0:
        return s0
    blocks, rhs = [], {}
    for a in range(seq.sub.algebra.dim):
        residual = mat_sub(matmul(seq.mid.action[a], s0), matmul(s0, seq.quot.action[a]))
        d = _from_columns([_rref_solve(include, col) for col in residual.transpose().data], nsub)
        blocks.append(
            mat_sub(
                tensor_map(seq.sub.action[a], Matrix.identity(nquot)),
                tensor_map(Matrix.identity(nsub), seq.quot.action[a].transpose()),
            )
        )
        offset = a * nsub * nquot
        rhs.update((offset + i * nquot + j, -v) for i, row in enumerate(d.data) for j, v in row.items())
    rows = [dict(r) for block in blocks for r in block.data]
    system = Matrix(len(rows), nsub * nquot, rows)
    t = _rref_solve(system, rhs)
    if t is None:
        return None
    t_mat = Matrix.zeros(nsub, nquot)
    for c, v in t.items():
        t_mat.data[c // nquot][c % nquot] = v
    return mat_add(s0, matmul(include, t_mat))


# every catalog pair but the negative control, which is not a Lie algebra and
# has no filtration, plus seeded conjugated copies (seed None: catalog basis)
ORACLE_CASES = [(name, None) for name in catalog_list() if not catalog_get(name).expect_invalid] + [
    ("semidirect-split", 5),
    ("diagonal-heisenberg", 11),
]


@pytest.mark.parametrize("fixture", ["sl2_borel", "diag_sl2", "semidirect_pair"])
def test_level_system_shape_matches_the_built_sequences(fixture, request):
    # the oracle budget reads the system sizes from the closed form
    pair = request.getfixturevalue(fixture)
    coeffs = [(None, 1), (quotient_module(pair), pair.dim_n), (adjoint_module(pair.h), pair.dim_h)]
    for side in "FR":
        for coeff, vdim in coeffs:
            filt = build_filtration(pair, side, 3, coeff=coeff)
            for k in range(1, 4):
                for reduced in (True, False) if coeff is None else (False,):
                    seq = level_sequence(filt, k, reduced=reduced)
                    shape = level_system_shape(pair.dim_n, side, k, vdim, reduced)
                    assert shape == (seq.sub.dim, seq.quot.dim), (side, vdim, k, reduced)


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
            got = got and got.matrix
            assert got == _reference_oracle(seq), (side, k)
            assert (got is None) == (not class_trivial), (side, k)
            for module in (seq.sub, seq.quot):
                denominators.update(v.denominator for m in module.action for r in m.data for v in r.values())
    # the conjugated copies keep the oracle's common-denominator path covered:
    # their actions hold non-integer entries (the catalog's are integers)
    if seed is not None:
        assert max(denominators) > 1


# the built sections against the solver: the valid catalog pairs, seeded and
# committed conjugated copies, and h = span(e) in sl2 (tests/data/sl2-span-e.json),
# whose class is trivial but which has no h-stable complement; a case is a
# catalog name, "<name>~<seed>" or the name of a file under tests/data
BUILT_CASES = [name for name, seed in ORACLE_CASES if seed is None] + [
    "diagonal-heisenberg~11",
    "sl2-borel~2",
    "diagonal-sl2-conjugated-3",
    "diagonal-heisenberg-conjugated-0",
    "semidirect-split-conjugated-0",
    "sl2-span-e",
]
NO_COMPLEMENT = {"sl2-borel", "sl2-borel~2", "sl2-span-e"}


def _any_pair(case):
    path = Path(__file__).parent / "data" / f"{case}.json"
    if path.exists():
        return parse_problem(path.read_text(encoding="utf-8")).pair()
    name, _, seed = case.partition("~")
    return _case_pair(name, int(seed) if seed else None)


@pytest.mark.parametrize("case", BUILT_CASES)
def test_built_sections_agree_with_the_solver(case, monkeypatch):
    # each reduced level up to K = 3 and each level with coefficients in n up
    # to K = 2 goes through section_oracle twice: solved (no candidate), then
    # built first.  The verdicts agree, and on a pair with an h-stable
    # complement every level that is not split in place keeps its built
    # section, so a broken build fails here instead of falling back to the solver
    from pbwgate import engine as engine_mod

    routes = Counter()
    monkeypatch.setattr(engine_mod, "ORACLE_ROUTES", routes)

    def route(*args):
        routes.clear()
        out = section_oracle(*args)
        [name] = routes
        return name, out

    pair = _any_pair(case)
    has_complement = h_stable_complement(pair) is not None
    assert has_complement == (case not in NO_COMPLEMENT)
    for coeff, K in ((None, 3), (quotient_module(pair), 2)):
        reduced = coeff is None
        for side in "FR":
            filt = build_filtration(pair, side, K, coeff=coeff)
            for k in range(2 if reduced else 1, K + 1):
                seq = level_sequence(filt, k, reduced)
                solved_route, solved = route(seq)
                built_route, built = route(seq, lambda: filt.y_section(k, reduced))
                assert (built is None) == (solved is None), (side, k, reduced)
                if solved_route == "split in place":
                    assert built_route == "split in place"
                else:
                    assert built_route == ("built" if has_complement else "solved"), (side, k, reduced)


@pytest.mark.parametrize(
    "case",
    BUILT_CASES + ["diagonal-sl2~7", "diagonal-heisenberg~3", "semidirect-split~5", "abelian-inclusion~2", "sl2-borel~4"],
)
def test_the_complement_is_the_section_solve_of_h_in_g(case):
    # the section system of 0 -> h -> g -> n -> 0 against the complement's
    # equations written out over the letter table: the same (t, Dt) where a
    # complement exists, and None where none does
    pair = _any_pair(case)
    expected = reference_h_stable_complement(pair)
    assert h_stable_complement(pair) == expected
    assert (expected is None) == (case in NO_COMPLEMENT or case == "sl2-borel~4")


def test_a_changed_complement_entry_fails_the_check_and_the_solver_decides(monkeypatch):
    # one entry of t changed: no built section passes the exact check, every
    # level is solved, and the verdicts are those of the true complement (on
    # catalog diagonal-heisenberg the complement is not unique, so a changed
    # entry can still give an equivariant section; the dense copy has no slack)
    from pbwgate import engine as engine_mod

    routes = Counter()
    monkeypatch.setattr(engine_mod, "ORACLE_ROUTES", routes)
    pair = parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair()
    t, dt = h_stable_complement(pair)
    changed = [row[:] for row in t]
    changed[0][0] += dt
    pair._caches["h_stable_complement"] = changed, dt
    assert engine_mod._level_verdicts(pair, 3) == ({2: True, 3: True}, {2: True, 3: True})
    assert routes == {"solved": 4}


def test_a_built_candidate_must_be_a_section_of_the_projection(monkeypatch):
    # the zero map is equivariant, so the check alone would keep it: a
    # candidate is kept only when its bottom block is the identity
    from pbwgate import engine as engine_mod

    routes = Counter()
    monkeypatch.setattr(engine_mod, "ORACLE_ROUTES", routes)
    filt = build_filtration(parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair(), "F", 2)
    seq = level_sequence(filt, 2, reduced=True)
    zero = [{} for _ in range(seq.mid.dim)]
    assert ModuleMap(seq.quot, seq.mid, Matrix(seq.mid.dim, seq.quot.dim, zero)).is_equivariant()
    assert section_oracle(seq, lambda: (zero, 1)) is not None
    assert routes == {"solved": 1}


def test_a_wrong_shaped_candidate_is_left_to_the_solver(monkeypatch):
    # a candidate with one row too few or too many is no section of mid:
    # the solver decides, and the verdict is the one without a candidate
    from pbwgate import engine as engine_mod

    routes = Counter()
    monkeypatch.setattr(engine_mod, "ORACLE_ROUTES", routes)
    filt = build_filtration(parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair(), "F", 2)
    seq = level_sequence(filt, 2, reduced=True)
    rows, scale = filt.y_section(2, reduced=True)
    expected = section_oracle(seq).matrix
    for candidate in (rows[1:], rows + [{}]):
        routes.clear()
        assert section_oracle(seq, lambda: (candidate, scale)).matrix == expected
        assert routes == {"solved": 1}
    routes.clear()
    assert section_oracle(seq, lambda: (rows, scale)) is not None
    assert routes == {"built": 1}


def test_the_oracle_returns_the_map_it_checked_and_makes_no_fraction(monkeypatch):
    # the kept candidate is returned as the int-form map the check read, its
    # rows the built list itself, and no verdict makes a Fraction in the engine
    from pbwgate import engine as engine_mod

    text = CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")
    filt = build_filtration(parse_problem(text).pair(), "F", 2)
    seq = level_sequence(filt, 2, reduced=True)
    rows, scale = filt.y_section(2, reduced=True)
    kept = section_oracle(seq, lambda: (rows, scale))
    assert kept.rows is rows and kept.scale == scale

    def no_fraction(*args):
        raise AssertionError("the oracle made a Fraction")

    monkeypatch.setattr(engine_mod, "Q", no_fraction)
    pair = parse_problem(text).pair()
    assert engine_mod._level_verdicts(pair, 3) == ({2: True, 3: True}, {2: True, 3: True})
    report = twisted_verdict(pair, quotient_module(pair), 2)
    assert (report.alpha_trivial, report.alpha_v_trivial) == (True, True)
    assert (report.f_levels, report.r_levels) == ({1: True, 2: True}, {1: True, 2: True})


def test_the_I_k_and_the_check_copy_nothing(monkeypatch):
    # each I_k returned is the very map the exact check accepted, and once the
    # pair and its filtrations are built no level verdict clears a matrix again
    from pbwgate import engine as engine_mod, lie as lie_mod

    checked: dict = {}  # id -> map, keeping each checked map alive
    real = ModuleMap.is_equivariant

    def spy(self):
        checked[id(self)] = self
        return real(self)

    monkeypatch.setattr(ModuleMap, "is_equivariant", spy)
    text = CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")
    maps = pbw_splitting_I(parse_problem(text).pair(), None, 3)
    assert len(maps) == 4 and all(checked.get(id(m)) is m for m in maps)

    def no_clearing(*args):
        raise AssertionError("a matrix was cleared again")

    pair = parse_problem(text).pair()
    for side in "FR":
        build_filtration(pair, side, 3)
    monkeypatch.setattr(lie_mod, "_int_rows", no_clearing)
    checked.clear()
    assert engine_mod._level_verdicts(pair, 3) == ({2: True, 3: True}, {2: True, 3: True})
    assert checked


def test_the_y_sections_compute_no_left_product_again(monkeypatch):
    # the derivation rule and the y-sections read one left-product table per
    # filtration: every (x, pos) asked for, during the build or by a section,
    # is one result object, computed once
    real = FilteredModule.left_product
    results: dict = {}  # (filtration, x, pos) -> {id: result}, keeping both alive
    calls = Counter()

    def spy(self, x, pos):
        out = real(self, x, pos)
        results.setdefault((self, x, pos), {})[id(out)] = out
        calls[self] += 1
        return out

    monkeypatch.setattr(FilteredModule, "left_product", spy)
    pair = parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair()
    for coeff in (None, quotient_module(pair)):
        for side in "FR":
            filt = FilteredModule(pair, side, 3, coeff)
            asked = calls[filt]
            for k in range(filt.K + 1):
                for reduced in (False, True) if coeff is None else (False,):
                    assert filt.y_section(k, reduced) is not None
            assert calls[filt] > asked, (side, coeff is None)
    assert all(len(outs) == 1 for outs in results.values())


def test_straightened_sections_need_the_symmetrisation(monkeypatch):
    # each monomial sent to the y-product of its sorted letters alone: still a
    # section of the projection, but not equivariant, so the check rejects it
    # and the level is solved
    from pbwgate import engine as engine_mod

    routes = Counter()
    monkeypatch.setattr(engine_mod, "ORACLE_ROUTES", routes)
    monkeypatch.setattr(engine_mod, "_distinct_permutations", lambda mono: [mono])
    filt = build_filtration(parse_problem(CONJUGATED_DIAGONAL_SL2.read_text(encoding="utf-8")).pair(), "R", 3)
    for k in (2, 3):
        seq = level_sequence(filt, k, reduced=True)
        rows, scale = filt.y_section(k, reduced=True)
        assert all(rows[seq.sub.dim + j] == {j: scale} for j in range(seq.quot.dim))
        assert not ModuleMap(seq.quot, seq.mid, Matrix(seq.mid.dim, seq.quot.dim, rows)).is_equivariant()
        assert level_splits(filt, k, reduced=True)
    assert routes == {"solved": 2}


# the level addresses over the valid catalog pairs, the committed conjugated
# files, sl2-span-e (dim n = 2, no h-stable complement) and seeded conjugated copies
ADDRESS_CASES = [name for name, seed in ORACLE_CASES if seed is None] + [
    "diagonal-sl2-conjugated-3",
    "diagonal-heisenberg-conjugated-0",
    "semidirect-split-conjugated-0",
    "sl2-span-e",
    "sl2-borel~2",
    "semidirect-split~5",
    "diagonal-heisenberg~11",
    "diagonal-sl2~7",
]


@pytest.mark.parametrize("case", ADDRESS_CASES)
def test_requests_with_one_address_have_equal_level_sequences(case):
    # every level request on both sides: k <= 4 with trivial coefficients,
    # reduced and not (rule B names the reduced free level 4), and k <= 3 with
    # coefficients in n and in the adjoint module of h.  Two requests that share
    # an address have sequences equal entry for entry, so one verdict serves both
    from pbwgate.engine import _level_address

    pair = _any_pair(case)
    requests = {}
    for coeff in (None, quotient_module(pair), adjoint_module(pair.h)):
        for side in "FR":
            filt = build_filtration(pair, side, 4 if coeff is None else 3, coeff=coeff)
            for k in range(1, filt.K + 1):
                for reduced in (True, False) if coeff is None else (False,):
                    requests.setdefault(_level_address(filt, k, reduced), []).append((filt, k, reduced))
    shared = 0
    for address, asked in requests.items():
        keys = {(seq.sub.key(), seq.mid.key(), seq.quot.key()) for seq in (level_sequence(*r) for r in asked)}
        assert len(keys) == 1, (address, [(filt.side, filt.coeff.dim, k, reduced) for filt, k, reduced in asked])
        shared += len(asked) > 1
    # rule A joins the two sides at level 1 (reduced and unreduced trivial
    # levels, the adjoint module); rule B the levels 1, 2 and 3 with
    # coefficients in n (both sides at level 1) to the reduced free levels 2-4
    assert shared >= 3 + 3


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
