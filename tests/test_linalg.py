import math
import random
from fractions import Fraction as Q

import pytest

from pbwgate.lie import LieAlgebra, LieModule, _kronecker_sum
from pbwgate.linalg import (
    Coordinates,
    Echelon,
    Matrix,
    _int_mul,
    _int_rows,
    _products_cancel,
    kernel_basis,
    rref,
    solve,
)

from conftest import ReferenceEchelon, _axpy, hstack, mat_add, mat_sub, subspace_intersection, system


def test_rref_identity():
    m = Matrix.identity(3)
    r, piv = rref(m)
    assert r == Matrix.identity(3)
    assert piv == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zeros(2, 2)
    r, piv = rref(m)
    assert r == Matrix.zeros(2, 2)
    assert piv == []


def test_rref_rank_one():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    r, piv = rref(m)
    assert r == Matrix.from_rows([[1, 2], [0, 0]])
    assert piv == [0]


def test_solve_identity():
    assert solve([{0: 1, 2: 1}, {1: 1, 2: 2}], 2) == {0: Q(1), 1: Q(2)}


def test_solve_free_variable_zero():
    assert solve([{0: 1, 1: 1, 2: 3}], 2) == {0: Q(3)}


def test_solve_inconsistent():
    # the row 0 * x = 1
    assert solve([{1: 1}], 1) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve([{0: 1, 2: 1}, {1: 1, 3: 3}], 2)


@pytest.mark.parametrize("rhs", [{0: 1, 5: 7}, {-1: 1}])
def test_solve_rejects_an_index_outside_the_rows(rhs):
    # a row entry outside 0..bcol: dropping it would solve a different system
    with pytest.raises(ValueError):
        solve([{0: 1, 2: 1}, {1: 1}, rhs], 2)


def test_solve_skips_empty_rows():
    assert solve([{}, {0: 2, 1: 4}, {}], 1) == {0: Q(2)}


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
def test_solve_does_not_depend_on_row_order(kind):
    # solve reorders the rows it is given (shortest first); rows as
    # generated, reversed and shuffled must still give one answer
    rng = random.Random({"consistent": 83, "inconsistent": 89, "deficient": 97}[kind])
    for _ in range(60):
        cols, rows = _random_system(rng, kind)
        rows = _int_rows(rows)[0]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        solutions = [solve(order, cols) for order in (rows, list(reversed(rows)), shuffled, iter(rows))]
        assert all(x == solutions[0] for x in solutions)
        assert (solutions[0] is None) == (kind == "inconsistent")
        assert solutions[0] == _rref_solution(_reference(cols + 1, rows).pivots, cols)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_map():
    basis = kernel_basis(Matrix.zeros(1, 2))
    assert len(basis) == 2


def test_kernel_sum_map():
    basis = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    x, y = basis[0]
    assert x == -y != 0


def test_intersection_equal_lines():
    e1 = {0: Q(1)}
    got = subspace_intersection([e1], [e1], 2)
    assert len(got) == 1


def test_intersection_transverse_lines():
    assert subspace_intersection([{0: Q(1)}], [{1: Q(1)}], 2) == []


def test_intersection_planes():
    got = subspace_intersection([{0: Q(1)}, {1: Q(1)}], [{1: Q(1)}, {2: Q(1)}], 3)
    assert len(got) == 1
    v = got[0]
    assert v.get(0, 0) == 0 and v.get(2, 0) == 0 and v.get(1, 0) != 0


# the four tensor-map cases on the package's Kronecker sum
# fa A (x) 1 + fb 1 (x) B (``lie._kronecker_sum``, the action of
# ``tensor_module`` and ``hom_module``) over int rows


def _identity_rows(n):
    return [{i: 1} for i in range(n)]


def test_tensor_map_scalars():
    assert _kronecker_sum(1, [{0: 2}], 1, [{0: 3}]) == [{0: 5}]
    assert _kronecker_sum(3, [{0: 2}], -1, [{0: 3}]) == [{0: 3}]
    # a sum that cancels drops its entry
    assert _kronecker_sum(3, [{0: 1}], -1, [{0: 3}]) == [{}]


def test_tensor_map_identity():
    assert _kronecker_sum(1, _identity_rows(2), 1, _identity_rows(3)) == [{i: 2} for i in range(6)]
    assert _kronecker_sum(1, _identity_rows(2), -1, _identity_rows(3)) == [{} for _ in range(6)]


def test_tensor_map_zero():
    zero = [{} for _ in range(2)]
    assert _kronecker_sum(1, zero, 1, _identity_rows(2)) == _identity_rows(4)
    assert _kronecker_sum(1, zero, 1, zero) == [{} for _ in range(4)]


def test_tensor_map_on_basis_tensors():
    # (2A (x) 1 - 3 (1 (x) B))(u (x) v) = 2 A u (x) v - 3 u (x) B v on each basis tensor
    f = Matrix.from_rows([[1, 2], [3, 4]])
    g = Matrix.from_rows([[0, 1, 0], [1, 0, -1], [2, 2, 1]])
    rows = _kronecker_sum(2, _int_rows(f.data)[0], -3, _int_rows(g.data)[0])
    t = Matrix(6, 6, rows)
    for j in range(2):
        for l in range(3):
            got = t.apply({j * 3 + l: Q(1)})
            expect: dict = {}
            for i, v in f.transpose().data[j].items():
                expect[i * 3 + l] = 2 * v
            for k, v in g.transpose().data[l].items():
                expect[j * 3 + k] = expect.get(j * 3 + k, 0) - 3 * v
            assert got == {c: v for c, v in expect.items() if v}


def test_echelon_copy_grows_apart_from_its_source():
    # a new pivot clears its column from the earlier rows in place, so the
    # copy must hold its own rows and column index
    ech = Echelon(3)
    ech.insert({0: 1, 1: 1})
    grown = ech.copy()
    assert grown.insert({1: 1, 2: 1}) == 1
    assert grown.pivots == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 1}}
    assert ech.pivots == {0: {0: 1, 1: 1}} and ech.rank == 1
    assert ech.insert({1: 1}) == 1
    assert grown.insert({1: 1}) == 2 and grown.rank == 3


def _random_matrix(rng, rows, cols, density=0.6):
    data = []
    for _ in range(rows):
        data.append([Q(rng.randint(-3, 3)) if rng.random() < density else Q(0) for _ in range(cols)])
    return Matrix.from_rows(data)


def test_solve_exactness_randomized():
    rng = random.Random(7)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_matrix(rng, rows, cols)
        x0 = {c: Q(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(cols)}
        b = a.apply({c: v for c, v in x0.items() if v})
        x = solve(*system(a, b))
        assert x is not None
        assert a.apply(x) == b


def test_rank_nullity_randomized():
    rng = random.Random(11)
    for _ in range(25):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = _random_matrix(rng, rows, cols)
        assert a.rank() + len(kernel_basis(a)) == cols


def _random_vectors(rng, dim, dependent):
    """Sparse rational vectors in ``dim`` coordinates: linearly independent
    ones, or with rational combinations of earlier ones shuffled in."""
    span = Echelon(dim)
    vecs = []
    for _ in range(rng.randint(1, dim)):
        vec = {j: Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for j in range(dim) if rng.random() < 0.5}
        vec = {j: v for j, v in vec.items() if v}
        if span.insert(_int_rows((vec,))[0][0]) is not None:
            vecs.append(vec)
    if dependent:
        for _ in range(rng.randint(1, 3)):
            vecs.append(_combination(rng, vecs))
        rng.shuffle(vecs)
    return vecs


def _combination(rng, vecs):
    out = {}
    for vec in vecs:
        lam = Q(rng.randint(-2, 2), rng.choice([1, 2]))
        for j, v in vec.items():
            out[j] = out.get(j, 0) + lam * v
    return {j: v for j, v in out.items() if v}


def _columns(vecs, dim):
    return Matrix(len(vecs), dim, [dict(v) for v in vecs]).transpose()


def test_coordinates_match_solve():
    rng = random.Random(13)
    outside = 0
    for dependent in [False, True] * 60:
        dim = rng.randint(1, 7)
        vecs = _random_vectors(rng, dim, dependent)
        a = _columns(vecs, dim)
        coords = Coordinates(vecs, dim)
        assert coords.rank == a.rank()
        inside = _combination(rng, vecs)
        anywhere = {j: Q(rng.randint(-3, 3)) for j in range(dim) if rng.random() < 0.6}
        for x in (inside, anywhere):
            y = coords(x)
            expected = solve(*system(a, x))
            assert (y is None) == (expected is None)
            if y is None:
                outside += 1
                continue
            assert a.apply(y) == {i: v for i, v in x.items() if v}
            if not dependent:
                # independent vectors: the coordinates are unique
                assert y == expected
        assert coords(inside) is not None
    assert outside > 0


def test_coordinates_reject_out_of_range_index():
    with pytest.raises(ValueError):
        Coordinates([{2: Q(1)}], 2)
    with pytest.raises(ValueError):
        Coordinates([{0: Q(1)}], 2)({2: Q(1)})


def _kernel_intersection(us, vs, dim):
    """Reference: U k_u for each k in the kernel of [U | -V]."""
    u_mat, v_mat = _columns(us, dim), _columns(vs, dim)
    kernel = kernel_basis(hstack(u_mat, mat_sub(Matrix.zeros(v_mat.rows, v_mat.cols), v_mat)))
    return [u_mat.apply({j: x for j, x in enumerate(k[: len(us)]) if x}) for k in kernel]


def _rank(vecs, dim):
    return Matrix(len(vecs), dim, [dict(v) for v in vecs]).rank()


def test_intersection_matches_kernel_reference():
    rng = random.Random(53)
    for _ in range(60):
        dim = rng.randint(1, 7)
        us = _random_vectors(rng, dim, rng.random() < 0.5)
        vs = _random_vectors(rng, dim, rng.random() < 0.5) + [_combination(rng, us)]
        got = subspace_intersection(us, vs, dim)
        reference = _kernel_intersection(us, vs, dim)
        assert len(got) == _rank(reference, dim) == _rank(got, dim)
        assert _rank(got + reference, dim) == len(got)
        for w in got:
            assert _rank(us + [w], dim) == _rank(us, dim)
            assert _rank(vs + [w], dim) == _rank(vs, dim)


def test_intersection_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        subspace_intersection([{0: Q(1)}], [{3: Q(1)}], 3)


def test_rowspace_preserved_by_rref():
    rng = random.Random(17)
    for _ in range(10):
        a = _random_matrix(rng, 4, 5)
        r, piv = rref(a)
        # every original row reduces to zero against the rref rows and vice versa
        e1 = Echelon(5)
        for row in _int_rows(a.data)[0]:
            e1.insert(row)
        for row in r.data:
            assert not e1.reduce(row)
        e2 = Echelon(5)
        for row in _int_rows(r.data)[0]:
            e2.insert(row)
        for row in a.data:
            assert not e2.reduce(row)


# --- back-substitution and back-reduction -------------------------------------


def _quadratic_rref(pivots):
    """Reference RREF of echelon pivot rows: the rank-squared inter-reduction
    that ``Echelon.back_reduce`` used before, which scans every pivot row for
    each pivot column."""
    rows = {}
    for c, row in pivots.items():
        lead = Q(row[c])
        rows[c] = {k: Q(v) / lead for k, v in row.items()}
    for c in sorted(rows, reverse=True):
        row_c = rows[c]
        for c2, row in rows.items():
            if c2 < c and c in row:
                coeff = row[c]
                for k, v in row_c.items():
                    w = row.get(k, 0) - coeff * v
                    if w:
                        row[k] = w
                    else:
                        row.pop(k, None)
    return rows


def _rref_solution(pivots, bcol):
    """Free-variables-zero solution read from the right-hand-side column of
    the full RREF, or None when a row pivots on that column."""
    rows = _quadratic_rref(pivots)
    if bcol in rows:
        return None
    return {c: row[bcol] for c, row in rows.items() if row.get(bcol)}


def _random_system(rng, kind):
    """Sparse rows over ``cols`` unknowns plus the right-hand side in column
    ``cols``, with rational entries.  ``kind`` is "consistent",
    "inconsistent" or "deficient" (consistent, with rows that are rational
    combinations of earlier ones)."""
    cols = rng.randint(1, 9)
    nrows = rng.randint(1, 9)

    def entry():
        return Q(rng.randint(-5, 5), rng.choice([1, 1, 1, 2, 3, 7]))

    a = [{j: entry() for j in range(cols) if rng.random() < 0.35} for _ in range(nrows)]
    a = [{j: v for j, v in r.items() if v} for r in a]
    x0 = [entry() for _ in range(cols)]
    rows = []
    for r in a:
        row = dict(r)
        b = sum((v * x0[j] for j, v in r.items()), Q(0))
        if b:
            row[cols] = b
        rows.append(row)
    if kind in ("deficient", "inconsistent"):
        for _ in range(rng.randint(1, 3)):
            combo = {}
            for r in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                lam = entry() or Q(1)
                for k, v in r.items():
                    combo[k] = combo.get(k, 0) + lam * v
            rows.append({k: v for k, v in combo.items() if v})
    if kind == "inconsistent":
        # a combination of earlier rows with its right-hand side moved by one
        bad = dict(rows[-1])
        bad[cols] = bad.get(cols, 0) + 1
        rows.append({k: v for k, v in bad.items() if v})
    rng.shuffle(rows)
    return cols, rows


def _echelon(ncols, rows, kind=Echelon):
    """An echelon holding the rational ``rows``, cleared with ``_int_rows``."""
    ech = kind(ncols)
    for r in _int_rows(rows)[0]:
        ech.insert(r)
    return ech


def _reference(ncols, rows):
    """The rescanning reference holding the rational ``rows``: pivot rows not
    reduced against each other, the input of ``_quadratic_rref``."""
    return _echelon(ncols, rows, ReferenceEchelon)


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
def test_solution_matches_full_rref(kind):
    rng = random.Random({"consistent": 31, "inconsistent": 37, "deficient": 41}[kind])
    for _ in range(60):
        cols, rows = _random_system(rng, kind)
        ech = _echelon(cols + 1, rows)
        expected = _rref_solution(_reference(cols + 1, rows).pivots, cols)
        got = ech.solution()
        assert got == expected
        assert (got is None) == (kind == "inconsistent")
        if got is not None:
            for r in rows:
                assert sum((v * got.get(j, 0) for j, v in r.items() if j < cols), Q(0)) == r.get(cols, 0)
        # the same answer after the RREF has been built
        ech.back_reduce()
        assert ech.solution() == expected


def _integer_rows(rows):
    """Each row times the lcm of its denominators, as Python ints."""
    out = []
    for r in rows:
        scale = math.lcm(*(v.denominator for v in r.values()))
        out.append({k: int(v * scale) for k, v in r.items()})
    return out


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
def test_solution_does_not_depend_on_insertion_order(kind):
    # with leftmost pivoting the pivot set is the RREF's, a property of the
    # row space alone, so generation order, shortest first, a shuffle and
    # integer-scaled rows all give the same free-variables-zero solution
    rng = random.Random({"consistent": 53, "inconsistent": 59, "deficient": 61}[kind])
    for _ in range(60):
        cols, rows = _random_system(rng, kind)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        orders = (rows, sorted(rows, key=len), shuffled, sorted(_integer_rows(rows), key=len))
        echs = [_echelon(cols + 1, order) for order in orders]
        assert len({frozenset(ech.pivots) for ech in echs}) == 1
        solutions = [ech.solution() for ech in echs]
        assert all(x == solutions[0] for x in solutions)
        assert (solutions[0] is None) == (kind == "inconsistent")


def _int_row_reference(vec):
    """The former conversion: scale by the lcm of the Fraction denominators,
    then ``int(v * scale)`` entry by entry."""
    scale = 1
    for v in vec.values():
        if isinstance(v, Q):
            scale = scale * v.denominator // math.gcd(scale, v.denominator)
    row = {c: int(v * scale) for c, v in vec.items()}
    return {c: v for c, v in row.items() if v}, scale


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_int_row_matches_reference(kind):
    rng = random.Random({"int": 67, "fraction": 71, "mixed": 73}[kind])
    for _ in range(200):
        vec = {}
        for c in range(rng.randint(0, 7)):
            num = rng.randint(-9, 9)
            if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
                vec[c] = num
            else:
                vec[c] = Q(num, rng.choice([1, 2, 3, 4, 7, 12]))
        (row,), scale = _int_rows((vec,))
        assert (row, scale) == _int_row_reference(vec)
        assert all(type(v) is int for v in row.values())


def _mul_reference(a, b):
    """The product in Fractions: one Fraction multiply-add per term."""
    data = [dict() for _ in range(a.rows)]
    for i, r in enumerate(a.data):
        for k, v in r.items():
            _axpy(data[i], v, b.data[k])
    return Matrix(a.rows, b.cols, data)


def _random_entries(rng, rows, cols, kind):
    data = []
    for _ in range(rows):
        row = {}
        for c in range(cols):
            if rng.random() < 0.5:
                continue
            num = rng.choice([n for n in range(-9, 10) if n])
            if kind == "integral":
                row[c] = Q(num)
            elif kind == "fraction":
                row[c] = Q(num, rng.choice([2, 3, 4, 12, 13, 169]))
            else:  # mixed: ints, integral and proper Fractions
                row[c] = rng.choice([num, Q(num), Q(num, rng.choice([1, 6, 13, 169]))])
        data.append(row)
    return data


MUL_CASES = ["integral", "fraction", "mixed", "zero-rows", "empty-shapes", "unreferenced"]


@pytest.mark.parametrize("case", MUL_CASES)
def test_mul_matches_fraction_reference(case):
    # _int_mul of the factors cleared by _int_rows, over the product of their
    # scales, is the product in Fractions
    rng = random.Random(MUL_CASES.index(case) + 101)
    kind = case if case in ("integral", "fraction") else "mixed"
    for _ in range(40):
        if case == "empty-shapes":
            n, m, p = rng.choice([(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
        else:
            n, m, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a_data = _random_entries(rng, n, m, kind)
        b_data = _random_entries(rng, m, p, kind)
        if case == "zero-rows":
            for data in (a_data, b_data):
                for r in rng.sample(range(len(data)), len(data) // 2):
                    data[r] = {}
        unused = set()
        if case == "unreferenced":
            # rows of b that no entry of a refers to are never read
            unused = set(rng.sample(range(m), m // 2))
            a_data = [{k: v for k, v in r.items() if k not in unused} for r in a_data]
        a, b = Matrix(n, m, a_data), Matrix(m, p, b_data)
        (ai, sa), (bi, sb) = _int_rows(a.data), _int_rows(b.data)
        for k in unused:
            bi[k] = None
        product = _int_mul(ai, bi)
        assert len(product) == n and all(0 <= c < p for r in product for c in r)
        assert all(type(v) is int and v for r in product for v in r.values())
        got = [{c: Q(v, sa * sb) for c, v in r.items()} for r in product]
        assert got == _mul_reference(a, b).data


def _int_matrix(rng, rows, cols):
    """Sparse int rows, about half the entries nonzero, in [-9, 9]."""
    return [{c: rng.choice([v for v in range(-9, 10) if v]) for c in range(cols) if rng.random() < 0.5} for _ in range(rows)]


def _sum_of_products(n, terms):
    """The rows of sum c * (A B) over the terms (c, A, B), B = None the
    identity, from the products built whole by ``_int_mul``, zeros dropped."""
    total = [{} for _ in range(n)]
    for c, a, b in terms:
        for acc, row in zip(total, a if b is None else _int_mul(a, b)):
            for k, v in row.items():
                acc[k] = acc.get(k, 0) + c * v
    return [{k: v for k, v in acc.items() if v} for acc in total]


CANCEL_CASES = ["cancelling", "generic", "last-row", "last-row-identity"]


@pytest.mark.parametrize("case", CANCEL_CASES)
def test_products_cancel_matches_the_product_reference(case):
    # n x p terms: cancelling sums pair A (B C) with (A B) C and A B with the
    # identity term of the product built whole; a last-row case adds a term
    # nonzero in the last row alone, which a check that stops a row early
    # reads as cancelling
    rng = random.Random(CANCEL_CASES.index(case) + 211)
    noncancelling = 0
    for _ in range(60):
        n, m, p = (rng.randint(1, 5) for _ in range(3))
        a, b, c = _int_matrix(rng, n, m), _int_matrix(rng, m, p), _int_matrix(rng, p, p)
        s, t = rng.choice([-3, -2, 2, 3, 5]), rng.choice([-4, -1, 1, 4, 6])
        ab = _int_mul(a, b)
        terms = [(s, a, _int_mul(b, c)), (-s, ab, c), (t, ab, None), (-t, a, b)]
        if case == "generic":
            terms = [(s, a, b), (t, _int_matrix(rng, n, p), None), (rng.choice([-1, 1]), _int_matrix(rng, n, m), b)]
        elif case.startswith("last-row"):
            # the sum is nonzero in row n - 1 alone: a nonzero multiple of row x of c
            x = rng.randrange(p)
            while not c[x]:
                c = _int_matrix(rng, p, p)
            last = [{} for _ in range(n - 1)] + [{x: rng.choice([-2, 1, 3])}]
            terms.append((s, last, c) if case == "last-row" else (t, _int_mul(last, c), None))
        expected = _sum_of_products(n, terms)
        if case != "generic":
            assert any(expected) == case.startswith("last-row")
            assert not any(expected[:-1])
        assert _products_cancel(n, terms) == (not any(expected))
        rng.shuffle(terms)
        assert _products_cancel(n, terms) == (not any(expected))
        noncancelling += any(expected)
    assert noncancelling > 0 or case == "cancelling"


# --- the elimination kernel against the rescanning reference ------------------


def _refill_block(draw, st, ncols):
    """Pivot rows at a < b < c and a row that loses column c at its step at
    a and regains it at its step at b: p_a ~ e_a + e_c, p_b ~ e_b + e_c and
    the row ~ e_a + e_b + e_c, each scaled; inserted first, in this order."""
    a, b, c = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=3, max_size=3, unique=True)))
    m = draw(st.lists(st.integers(-50, 50).filter(bool), min_size=4, max_size=4))
    tail = {j: m[2] for j in range(c + 1, ncols)}
    return [{a: m[0], c: m[0]}, {b: m[1], c: m[1]}, {c: m[2], **tail}, {a: m[3], b: m[3], c: m[3]}]


def _drawn_rows(data, st):
    """(ncols, int rows, a strategy for one more row): sparse and dense rows,
    after a refill block half of the time."""
    ncols = data.draw(st.integers(3, 9))
    sparse = st.dictionaries(st.integers(0, ncols - 1), st.integers(-3, 3).filter(bool), max_size=3)
    dense = st.lists(st.integers(-50, 50), min_size=ncols, max_size=ncols).map(
        lambda r: {j: v for j, v in enumerate(r) if v}
    )
    rows = data.draw(st.lists(st.one_of(sparse, dense), max_size=8))
    if data.draw(st.booleans()):
        rows = _refill_block(data.draw, st, ncols) + rows
    return ncols, rows, st.one_of(sparse, dense)


def test_echelon_matches_the_rescanning_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        ncols, rows, row = _drawn_rows(data, st)
        probes = rows + data.draw(st.lists(row, max_size=4))
        given = [dict(r) for r in rows]
        ech, ref = Echelon(ncols), ReferenceEchelon(ncols)
        for row in rows:
            assert ech.insert(row) == ref.insert(row)
        assert rows == given  # insert does not touch the caller's rows
        assert set(ech.pivots) == set(ref.pivots)
        assert all(type(v) is int for r in ech.pivots.values() for v in r.values())
        assert ech.solution() == ref.solution()
        for vec in probes:
            assert ech.reduce(vec) == ref.reduce(vec)
            halved = {c: Q(v, 2) for c, v in vec.items()}
            assert ech.reduce(halved) == ref.reduce(halved)
        # each pivot row is the reference's RREF row up to its lead
        ref.back_reduce()
        assert {c: {k: Q(v, r[c]) for k, v in r.items()} for c, r in ech.pivots.items()} == ref.pivots

    prop()


def _assert_reduced(ech):
    """Each pivot row is primitive, has a positive lead and is zero on every
    other pivot column."""
    for c, row in ech.pivots.items():
        assert row[c] > 0 and min(row) == c
        assert math.gcd(*row.values()) == 1
        assert not (set(row) - {c}) & set(ech.pivots)


def test_pivot_rows_stay_reduced_after_each_insert():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        ncols, rows, _ = _drawn_rows(data, st)
        ech = Echelon(ncols)
        for row in rows:
            ech.insert(row)
            _assert_reduced(ech)

    prop()


@pytest.mark.parametrize("row", [{0: Q(1, 2)}, {0: 1, 1: Q(1, 2)}, {0: Q(2), 1: 3}, {0: Q(1, 2), 2: Q(1, 2)}])
def test_insert_and_solve_reject_a_fraction_entry(row):
    # int rows are the contract; a rational row must be cleared by its caller
    with pytest.raises(TypeError):
        Echelon(3).insert(row)
    # the same row after a pivot on column 0: met in the pass, or in the last
    # strip; the last row is half that pivot row, so nothing is left to strip
    with pytest.raises(TypeError):
        solve([{0: 1, 2: 1}, row], 2)


def test_echelon_is_closed_after_back_reduce():
    # the second row's pivot is cleared from the first, and back_reduce only
    # divides by the leads
    ech = _echelon(4, [{0: Q(2), 1: Q(1), 2: Q(1)}, {1: Q(3), 2: Q(1)}])
    assert ech.pivots == {0: {0: 3, 2: 1}, 1: {1: 3, 2: 1}}
    ech.back_reduce()
    assert ech.pivots == {0: {0: Q(1), 2: Q(1, 3)}, 1: {1: Q(1), 2: Q(1, 3)}}
    with pytest.raises(ValueError):
        ech.insert({1: Q(1)})
    with pytest.raises(ValueError):
        ech.reduce({1: Q(1)})
    assert ech.rank == 2


def test_back_reduce_matches_quadratic_reference():
    rng = random.Random(43)
    for kind in ["consistent", "inconsistent", "deficient"] * 30:
        cols, rows = _random_system(rng, kind)
        ech = _echelon(cols + 1, rows)
        expected = _quadratic_rref(_reference(cols + 1, rows).pivots)
        ech.back_reduce()
        assert ech.pivots == expected
        for row in ech.pivots.values():
            assert all(isinstance(v, Q) for v in row.values())


def _sympy_matrix(sympy, a):
    return sympy.Matrix(
        a.rows, a.cols, lambda i, j: sympy.Rational(a.entry(i, j).numerator, a.entry(i, j).denominator)
    )


def _from_sympy(x):
    return Q(int(x.p), int(x.q))


def test_rank_solve_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(47)
    for kind in ["consistent", "inconsistent", "deficient"] * 15:
        cols, rows = _random_system(rng, kind)
        a = Matrix(len(rows), cols, [{j: v for j, v in r.items() if j < cols} for r in rows])
        b = {i: r[cols] for i, r in enumerate(rows) if cols in r}
        sa = _sympy_matrix(sympy, a)
        assert a.rank() == sa.rank()
        column = [b.get(i, Q(0)) for i in range(len(rows))]
        reduced, piv = sa.row_join(sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in column])).rref()
        x = solve(_int_rows(rows)[0], cols)
        if cols in piv:
            assert x is None
        else:
            expected = {c: _from_sympy(reduced[i, cols]) for i, c in enumerate(piv)}
            assert x == {c: v for c, v in expected.items() if v}
        assert kernel_basis(a) == [[_from_sympy(v) for v in vec] for vec in sa.nullspace()]


def test_solution_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        cols = data.draw(st.integers(1, 5))
        dense = data.draw(st.lists(st.lists(entries, min_size=cols + 1, max_size=cols + 1), min_size=1, max_size=6))
        rows = [{j: v for j, v in enumerate(r) if v} for r in dense]
        ech = _echelon(cols + 1, rows)
        x = ech.solution()
        assert x == _rref_solution(_reference(cols + 1, rows).pivots, cols)
        a = Matrix.from_rows([r[:cols] for r in dense])
        if x is None:
            assert a.rank() < Matrix.from_rows(dense).rank()
        else:
            assert set(x) <= set(ech.pivots)
            assert a.apply(x) == {i: r[cols] for i, r in enumerate(dense) if r[cols]}

    prop()


def test_reduce_contains_pivots_property():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)

    def rank(dense):
        return _sympy_matrix(sympy, Matrix.from_rows(dense)).rank()

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def prop(data):
        cols = data.draw(st.integers(1, 6))
        vector = st.lists(entries, min_size=cols, max_size=cols)
        dense = data.draw(st.lists(vector, min_size=1, max_size=6))
        v = data.draw(vector)
        lam = data.draw(st.lists(entries, min_size=len(dense), max_size=len(dense)))
        ech = _echelon(cols, [{j: x for j, x in enumerate(r) if x} for r in dense])
        # pivots are the RREF pivot columns; each row is zero left of its pivot
        assert sorted(ech.pivots) == list(_sympy_matrix(sympy, Matrix.from_rows(dense)).rref()[1])
        for c, row in ech.pivots.items():
            assert row[c] and min(row) == c
        # reduce: off the pivots, congruent to v, the same for every coset member
        red = ech.reduce({j: x for j, x in enumerate(v) if x})
        assert not set(red) & set(ech.pivots)
        assert rank(dense + [[x - red.get(j, Q(0)) for j, x in enumerate(v)]]) == rank(dense)
        moved = [x + sum((l * r[j] for l, r in zip(lam, dense)), Q(0)) for j, x in enumerate(v)]
        assert ech.reduce({j: x for j, x in enumerate(moved) if x}) == red
        # an empty reduction: membership in the row space
        assert (not ech.reduce({j: x for j, x in enumerate(v) if x})) == (rank(dense + [v]) == rank(dense))

    prop()


def _combination_reference(mats, coeffs, dim):
    """sum_i coeffs[i] * mats[i] in Fractions: one scaled copy and one matrix
    sum per term."""
    out = Matrix.zeros(dim, dim)
    for i, c in coeffs.items():
        out = mat_add(out, Matrix(dim, dim, [{j: c * v for j, v in r.items()} for r in mats[i].data]))
    return out


@pytest.mark.parametrize("kind", ["integral", "fraction", "mixed", "cancelling", "empty"])
def test_combination_matches_termwise_sum(kind):
    # LieModule.act_vec of the cleared coefficients, over their scale times the
    # module's, is the termwise sum of the Fraction action matrices
    rng = random.Random(f"combination-{kind}")
    for _ in range(20):
        dim = 0 if kind == "empty" else rng.randint(1, 5)
        mats = [Matrix(dim, dim, _random_entries(rng, dim, dim, "mixed" if kind == "cancelling" else kind)) for _ in range(4)]
        picked = rng.sample(range(4), rng.randint(0, 4))
        coeffs = {i: Q(rng.choice([n for n in range(-5, 6) if n]), rng.choice([1, 2, 3, 13])) for i in picked}
        if kind == "cancelling":
            mats[1] = mats[0]
            coeffs.update({0: Q(2, 3), 1: Q(-2, 3)})
            coeffs.pop(2, None), coeffs.pop(3, None)
        mod = LieModule(LieAlgebra(4), dim, mats)
        (x,), xs = _int_rows((coeffs,))
        got = mod.act_vec(x)
        want = _combination_reference(mats, coeffs, dim)
        assert len(got) == dim
        assert all(type(v) is int and v for r in got for v in r.values())
        # the same entries and the same zeros dropped
        assert [{c: Q(v, xs * mod.scale) for c, v in r.items()} for r in got] == want.data
        if kind == "cancelling":
            assert not any(got)
