import math
import random
from fractions import Fraction as Q

import pytest

from pbwgate.linalg import (
    Coordinates,
    Echelon,
    Matrix,
    _int_row,
    kernel_basis,
    rref,
    solve,
    subspace_intersection,
    tensor_map,
)


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
    assert solve(Matrix.identity(2), {0: 1, 1: 2}) == {0: Q(1), 1: Q(2)}


def test_solve_free_variable_zero():
    assert solve(Matrix.from_rows([[1, 1]]), {0: 3}) == {0: Q(3)}


def test_solve_inconsistent():
    assert solve(Matrix.from_rows([[0]]), {0: 1}) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), {2: 3})


@pytest.mark.parametrize("rhs", [{0: 1, 5: 7}, {-1: 1}])
def test_solve_rejects_an_index_outside_the_rows(rhs):
    # dropping the out-of-range entry would solve a different system
    with pytest.raises(ValueError):
        solve(Matrix.identity(2), rhs)


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


def test_tensor_map_scalars():
    f = Matrix.from_rows([[Q(2)]])
    g = Matrix.from_rows([[Q(3)]])
    assert tensor_map(f, g) == Matrix.from_rows([[Q(6)]])


def test_tensor_map_identity():
    assert tensor_map(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_tensor_map_zero():
    assert tensor_map(Matrix.zeros(2, 2), Matrix.identity(2)) == Matrix.zeros(4, 4)


def test_tensor_map_on_basis_tensors():
    f = Matrix.from_rows([[1, 2], [3, 4]])
    g = Matrix.from_rows([[0, 1], [1, 0], [2, 2]])
    t = tensor_map(f, g)
    for j in range(2):
        for l in range(2):
            got = t.apply({j * 2 + l: Q(1)})
            fu = f.transpose().data[j]
            gv = g.transpose().data[l]
            expect = {i * 3 + k: fu[i] * gv[k] for i in fu for k in gv}
            assert got == expect


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
        x = solve(a, b)
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
        if span.insert(vec) is not None:
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
            expected = solve(a, x)
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
    kernel = kernel_basis(u_mat.hstack(v_mat.scale(-1)))
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
        for row in a.data:
            e1.insert(row)
        for row in r.data:
            assert e1.contains(row)
        e2 = Echelon(5)
        for row in r.data:
            e2.insert(row)
        for row in a.data:
            assert e2.contains(row)


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


def _echelon(ncols, rows):
    ech = Echelon(ncols)
    for r in rows:
        ech.insert(r)
    return ech


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "deficient"])
def test_solution_matches_full_rref(kind):
    rng = random.Random({"consistent": 31, "inconsistent": 37, "deficient": 41}[kind])
    for _ in range(60):
        cols, rows = _random_system(rng, kind)
        ech = _echelon(cols + 1, rows)
        expected = _rref_solution(ech.pivots, cols)
        got = ech.solution(cols)
        assert got == expected
        assert (got is None) == (kind == "inconsistent")
        if got is not None:
            for r in rows:
                assert sum((v * got.get(j, 0) for j, v in r.items() if j < cols), Q(0)) == r.get(cols, 0)
        # the same answer after the RREF has been built
        ech.back_reduce()
        assert ech.solution(cols) == expected


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
        solutions = [ech.solution(cols) for ech in echs]
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
        row, scale = _int_row(vec)
        assert (row, scale) == _int_row_reference(vec)
        assert all(type(v) is int for v in row.values())


def test_solution_needs_last_column():
    ech = _echelon(3, [{0: Q(1), 2: Q(1)}])
    with pytest.raises(ValueError):
        ech.solution(1)


def test_echelon_is_closed_after_back_reduce():
    ech = _echelon(3, [{0: Q(2), 2: Q(1)}])
    ech.back_reduce()
    assert ech.pivots == {0: {0: Q(1), 2: Q(1, 2)}}
    with pytest.raises(ValueError):
        ech.insert({1: Q(1)})
    with pytest.raises(ValueError):
        ech.reduce({1: Q(1)})
    with pytest.raises(ValueError):
        ech.contains({0: Q(1)})
    assert ech.rank == 1


def test_back_reduce_matches_quadratic_reference():
    rng = random.Random(43)
    for kind in ["consistent", "inconsistent", "deficient"] * 30:
        cols, rows = _random_system(rng, kind)
        ech = _echelon(cols + 1, rows)
        expected = _quadratic_rref(ech.pivots)
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
        x = solve(a, b)
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
        x = ech.solution(cols)
        assert x == _rref_solution(ech.pivots, cols)
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
        # contains: membership in the row space
        assert ech.contains({j: x for j, x in enumerate(v) if x}) == (rank(dense + [v]) == rank(dense))

    prop()
