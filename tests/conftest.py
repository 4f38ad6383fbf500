import math
from dataclasses import dataclass
from fractions import Fraction as Q

import pytest

from pbwgate.catalog import catalog_get
import itertools

from pbwgate.cohomology import (
    Cochain,
    NotACocycleError,
    alpha_cocycle,
    ce_differential,
    connecting_cocycle,
    is_trivial,
    obstruction,
)
from pbwgate.engine import _letter_ints, _normal_form, build_filtration
from pbwgate.lie import (
    LieAlgebra,
    LieModule,
    NotSubalgebraError,
    ext_monomials,
    hom_module,
    make_pair,
    quotient_module,
    sort_with_sign,
    sym_monomials,
    tensor_module,
)
from pbwgate.koszul import KoszulComplexSlice, KoszulReport, _in_relations_at, _QaDegrees, _wedge_vector
from pbwgate.linalg import (
    Coordinates,
    Echelon,
    Matrix,
    _add_term,
    _in_range,
    _int_mul,
    _int_rows,
    solve,
)


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


def int_table(table) -> tuple:
    """A square table of sparse Fraction vectors over one common denominator,
    in the blocks ``LieAlgebra.int_table`` and ``_letter_ints`` hold:
    (integer table, scale) with table[i][j] = integer table[i][j] / scale."""
    n = len(table)
    ints, scale = _int_rows([vec for row in table for vec in row])
    return tuple(ints[i * n:(i + 1) * n] for i in range(n)), scale


def fraction_table(alg: LieAlgebra) -> list:
    """The structure table of ``alg`` in Fractions: a view of its one int table."""
    ints, scale = alg.int_table
    return [[{k: Q(v, scale) for k, v in vec.items()} for vec in row] for row in ints]


def bracket(alg: LieAlgebra, x: dict, y: dict) -> dict:
    """[x, y] in Fractions: x and y cleared to ints, bracketed over the int
    table by ``LieAlgebra._int_bracket`` and divided once per output entry."""
    (xr,), xs = _int_rows((x,))
    (yr,), ys = _int_rows((y,))
    den = xs * ys * alg.int_table[1]
    return {k: Q(v, den) for k, v in alg._int_bracket(xr, yr).items() if v}


def _axpy(dst: dict, coeff, src: dict) -> None:
    """dst += coeff * src, dropping zeros."""
    for c, v in src.items():
        _add_term(dst, c, coeff * v)


def combination(mats, coeffs: dict, dim: int) -> Matrix:
    """sum_i coeffs[i] * mats[i] for square Fraction matrices of size ``dim``."""
    data = [dict() for _ in range(dim)]
    for i, c in coeffs.items():
        for acc, row in zip(data, mats[i].data):
            _axpy(acc, c, row)
    return Matrix(dim, dim, data)


def tensor_map(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product: (f (x) g)(u (x) v) = f(u) (x) g(v) in lex tensor bases."""
    data = [dict() for _ in range(f.rows * g.rows)]
    for i, fr in enumerate(f.data):
        for k, gr in enumerate(g.data):
            target = data[i * g.rows + k]
            for j, fv in fr.items():
                for l, gv in gr.items():
                    target[j * g.cols + l] = fv * gv
    return Matrix(f.rows * g.rows, f.cols * g.cols, data)


def _plus(a: Matrix, coeff, b: Matrix) -> Matrix:
    """a + coeff * b, zeros dropped."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")
    data = [dict(r) for r in a.data]
    for acc, r in zip(data, b.data):
        _axpy(acc, coeff, r)
    return Matrix(a.rows, a.cols, data)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """The reference matrix sum a + b."""
    return _plus(a, 1, b)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """The reference matrix difference a - b."""
    return _plus(a, -1, b)


def ce_matrix(h: LieAlgebra, module, p: int) -> Matrix:
    """``ce_differential``'s int rows over their scale, as a Fraction Matrix."""
    rows, scale = ce_differential(h, module, p)
    cols = len(ext_monomials(h.dim, p)) * module.dim
    return Matrix(len(rows), cols, [{c: Q(v, scale) for c, v in r.items()} for r in rows])


def reference_ce_differential(h: LieAlgebra, module, p: int) -> Matrix:
    """The Chevalley-Eilenberg differential C^p -> C^{p+1} in Fractions, from
    the module's Fraction action and h's structure table: the reference for
    the int rows of ``ce_differential``."""
    src = ext_monomials(h.dim, p)
    dst = ext_monomials(h.dim, p + 1)
    src_index = {t: i for i, t in enumerate(src)}
    dm = module.dim
    d = Matrix.zeros(len(dst) * dm, len(src) * dm)
    table = fraction_table(h)

    def add_block(trow, scol, block, sign):
        for i, row in enumerate(block.data):
            target = d.data[trow * dm + i]
            for j, v in row.items():
                _add_term(target, scol * dm + j, sign * v)

    for tidx, tup in enumerate(dst):
        for i in range(p + 1):
            rest = tup[:i] + tup[i + 1:]
            add_block(tidx, src_index[rest], module.action[tup[i]], Q((-1) ** i))
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = tuple(x for k, x in enumerate(tup) if k not in (i, j))
            for c, coeff in table[tup[i]][tup[j]].items():
                sorted_sign = sort_with_sign((c,) + rest)
                if sorted_sign is None:
                    continue
                mono, sgn = sorted_sign
                add_block(tidx, src_index[mono], Matrix.identity(dm), Q((-1) ** (i + j)) * coeff * sgn)
    return d


def bracket_letters(pair, u: int, v: int) -> dict:
    """[letter u, letter v] expanded over the letters, in Fractions: a view of
    the pair's one int table ``_letter_ints``."""
    ints, D = _letter_ints(pair)
    return {k: Q(c, D) for k, c in ints[u][v].items()}


def hom_value(cochain: Cochain, z: int, target_dim: int, source_dim: int) -> Matrix:
    """The value at the z-th basis element of a 1-cochain with values in a
    hom module, as a (target x source) matrix."""
    out = Matrix.zeros(target_dim, source_dim)
    for idx, row in enumerate(cochain.values.data):
        if z in row:
            out.data[idx // source_dim][idx % source_dim] = row[z]
    return out


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """[a | b]: the columns of ``b`` after those of ``a``."""
    assert a.rows == b.rows
    return Matrix(a.rows, a.cols + b.cols, [{**r, **{c + a.cols: v for c, v in q.items()}} for r, q in zip(a.data, b.data)])


def reference_alpha_values(pair, module) -> Matrix:
    """The values of the obstruction cocycle in Fractions: column z holds
    c(z)(n_r) acting on E, for each r side by side, flattened at i * cols + j."""
    c = connecting_cocycle(pair)
    cols = pair.dim_n * module.dim
    values = Matrix.zeros(module.dim * cols, pair.dim_h)
    for z in range(pair.dim_h):
        phi = Matrix.zeros(module.dim, 0)
        for hvec in hom_value(c, z, pair.dim_h, pair.dim_n).transpose().data:
            phi = hstack(phi, combination(module.action, hvec, module.dim))
        for i, row in enumerate(phi.data):
            for j, v in row.items():
                values.data[i * cols + j][z] = v
    return values


def reference_primitive(h: LieAlgebra, cocycle: Cochain):
    """A 0-cochain b with d(b) = ``cocycle`` from the Fraction rows of
    ``reference_ce_differential``, or None."""
    d = reference_ce_differential(h, cocycle.module, 0)
    sol = solve(*system(d, cocycle.vec()))
    if sol is None:
        return None
    return Matrix(cocycle.module.dim, 1, [{0: sol[m]} if m in sol else {} for m in range(cocycle.module.dim)])


def reference_extension_rho(pair, module):
    """The unknown blocks B_r of ``find_extension``, solved from Fraction
    rows: n-part of [i(a), sigma_r] on the B_s, [act_E(a), B_r], and the
    h-part acting on E on the right; None when the system is inconsistent."""
    dn, dh, de = pair.dim_n, pair.dim_h, module.dim
    nunk = dn * de * de

    def unk(r, i, j):
        return (r * de + i) * de + j

    rows = []
    for a in range(dh):
        act = module.action[a]
        for r in range(dn):
            bracket = bracket_letters(pair, dn + a, r)
            const = combination(module.action, {w - dn: v for w, v in bracket.items() if w >= dn}, de)
            for i in range(de):
                for j in range(de):
                    row = {}
                    for s, c in bracket.items():
                        if s < dn:
                            _add_term(row, unk(s, i, j), c)
                    for k in range(de):
                        _add_term(row, unk(r, k, j), -act.entry(i, k))
                        _add_term(row, unk(r, i, k), act.entry(k, j))
                    if const.entry(i, j):
                        row[nunk] = -const.entry(i, j)
                    rows.append(row)
    sol = solve(_int_rows(rows)[0], nunk)
    if sol is None:
        return None
    rho = [Matrix.zeros(de, de) for _ in range(dn)]
    for c, v in sol.items():
        r, ij = divmod(c, de * de)
        rho[r].data[ij // de][ij % de] = v
    return rho


def system(a: Matrix, b: dict) -> tuple:
    """``(rows, bcol)`` of the system a x = b for ``linalg.solve``: each row
    of ``a`` with its entry of ``b`` in column ``a.cols``, cleared to int rows."""
    rows = [dict(r) for r in a.data]
    for i, v in b.items():
        rows[i][a.cols] = v
    return _int_rows(rows)[0], a.cols


def invert(m: Matrix) -> Matrix:
    """The inverse of an invertible matrix, one ``solve`` per column."""
    cols = []
    for j in range(m.rows):
        x = solve(*system(m, {j: Q(1)}))
        assert x is not None
        cols.append(x)
    return Matrix(len(cols), m.cols, cols).transpose()


class ReferencePair:
    """An inclusion pair's letter coordinates, letter bracket table, h and n
    by a second route: a tagged-echelon ``Coordinates`` solve over the
    adapted basis for each bracket, and a second ``Coordinates`` over h's
    columns for h's structure constants.  The package expands every bracket
    with one coordinate column per basis vector of g instead.  Raises as
    ``InclusionPair`` does."""

    def __init__(self, g: LieAlgebra, h_embedding: Matrix, complement):
        self.g, self.dim_h = g, h_embedding.cols
        self.dim_n = dn = g.dim - self.dim_h
        h_cols = h_embedding.transpose().data
        n_cols = [{r: Q(1)} for r in complement]
        self._coords = Coordinates(h_cols + n_cols, g.dim)
        if self._coords.rank != g.dim or len(n_cols) != dn:
            raise ValueError("complement does not complete the subalgebra to a basis of g")
        self.h = self._induced_subalgebra(h_embedding, h_cols)
        cols = n_cols + h_cols
        self.table = [[{} for _ in cols] for _ in cols]
        for a, b in itertools.combinations(range(len(cols)), 2):
            self.table[a][b] = self.letter_coords(bracket(g, cols[a], cols[b]))
            self.table[b][a] = {i: -v for i, v in self.table[a][b].items()}

    def letter_coords(self, x: dict) -> dict:
        """x over the letters (n-letters then h-letters)."""
        c = self._coords(x)
        assert c is not None
        dh = self.dim_h
        out = {i - dh: v for i, v in c.items() if i >= dh}
        out.update((self.dim_n + a, v) for a, v in c.items() if a < dh)
        return out

    def _induced_subalgebra(self, h_embedding: Matrix, h_cols) -> LieAlgebra:
        dh = self.dim_h
        table = [[{} for _ in range(dh)] for _ in range(dh)]
        coords = Coordinates(h_cols, self.g.dim)
        for a in range(dh):
            for b in range(dh):
                sol = coords(bracket(self.g, h_cols[a], h_cols[b]))
                if sol is None:
                    raise NotSubalgebraError(a, b)
                table[a][b] = sol
        labels = tuple(f"h{a}" for a in range(dh))
        if all(len(h_embedding.data[i]) <= 1 for i in range(self.g.dim)):
            picked = [self.g.labels[c] for col in h_cols if len(col) == 1 for c, v in col.items() if v == 1]
            if len(picked) == dh:
                labels = tuple(picked)
        return LieAlgebra(dh, labels, table)

    def quotient_module(self) -> LieModule:
        dn = self.dim_n
        action = []
        for a in range(self.dim_h):
            cols = [{s: v for s, v in self.table[dn + a][r].items() if s < dn} for r in range(dn)]
            action.append(Matrix(dn, dn, cols).transpose())
        return LieModule(self.h, dn, action)


def complement_change(p1, p2) -> Matrix:
    """theta: n1 -> n2, whose columns are the n2-coordinates of sigma1."""
    dn = p2.dim_n
    ref = ReferencePair(p2.g, p2.h_embedding, p2.complement)
    cols = [{r: v for r, v in ref.letter_coords(col).items() if r < dn} for col in p1.sigma.transpose().data]
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
        phi1 = matmul(matmul(theta_inv, hom_value(a2, z, dn, dn * dn)), tensor_map(theta, theta))
        for i, row in enumerate(phi1.data):
            for j, v in row.items():
                transported.data[i * dn * dn + j][z] = v
    return Cochain(1, a1.module, mat_sub(a1.values, transported))


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
    elif ce_matrix(pair.h, cocycle.module, 1).apply(cocycle.vec()):
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
        for i, row in enumerate(matmul(hom_value(cocycle, z, dn, dn * dn), anti).data):
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


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b, every product and sum taken in Fractions: the
    reference for ``linalg._int_mul`` on cleared rows."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    return Matrix(a.rows, b.cols, _fraction_product(a, b))


def reference_compatibility_defects(mod) -> list:
    """``LieModule.compatibility_defects`` in Fractions: the pairs (i, j)
    where action([x_i, x_j]) != [action(x_i), action(x_j)]."""
    bad = []
    alg = mod.algebra
    table = fraction_table(alg)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = combination(mod.action, table[i][j], mod.dim)
            ij = Matrix(mod.dim, mod.dim, _fraction_product(mod.action[i], mod.action[j]))
            ji = Matrix(mod.dim, mod.dim, _fraction_product(mod.action[j], mod.action[i]))
            if lhs != mat_sub(ij, ji):
                bad.append((i, j))
    return bad


def reference_is_equivariant(f) -> bool:
    """``ModuleMap.is_equivariant`` in Fractions: M A_i == B_i M for each i."""
    for i in range(f.source.algebra.dim):
        if _fraction_product(f.matrix, f.source.action[i]) != _fraction_product(f.target.action[i], f.matrix):
            return False
    return True


def symmetrization(dn: int, k: int) -> Matrix:
    """Sym_k: S^k(n) -> n^{(x)k}, each monomial averaged over its k! orderings
    (tensor coordinates in ``itertools.product`` order)."""
    monos = sym_monomials(dn, k)
    m = Matrix.zeros(dn ** k, len(monos))
    for col, mono in enumerate(monos):
        for perm in itertools.permutations(mono):
            idx = sum(p * dn ** (k - 1 - i) for i, p in enumerate(perm))
            _add_term(m.data[idx], col, Q(1, math.factorial(k)))
    return m


def _drop_h_tails(terms: dict) -> dict:
    """The n-word terms of a normal form: a term with an h-tail lies in the
    left ideal generated by h and dies."""
    return {nword: c for (nword, htail), c in terms.items() if not htail}


def straighten_g(pair, word) -> dict:
    """Straightened normal form of a g-word in Fractions: combination of
    weakly increasing n-letter monomials."""
    return _drop_h_tails(_normal_form(pair, "R", tuple(word)))


def reference_pbw_splitting_I(pair, rho, K: int) -> list:
    """The matrices I_k, k <= K, of the connection recursion I(1) = 1,
    I(x_1...x_k) = (1/k) sum_j [x_j . I(rest_j) - I(nabla_{x_j} rest_j)] in
    Fractions, lazily memoised per monomial, from the datum's Fraction rho and
    ``straighten_g``: the reference for the int recursion of
    ``engine.pbw_splitting_I``."""
    r_filt = build_filtration(pair, "R", K)
    cols = [m.transpose().data for m in rho.rho[: pair.dim_n]]
    images = {(): {(): Q(1)}}  # monomial -> I(monomial), over straightened monomials

    def nabla(x, mono):
        out: dict = {}
        for i, y in enumerate(mono):
            for r, v in cols[x][y].items():
                _add_term(out, tuple(sorted(mono[:i] + (r,) + mono[i + 1 :])), v)
        return out

    def image(mono):
        if mono not in images:
            out: dict = {}
            for j, x in enumerate(mono):
                rest = mono[:j] + mono[j + 1 :]
                terms = [(c, straighten_g(pair, (x,) + m)) for m, c in image(rest).items()]
                terms += [(-c, image(m)) for m, c in nabla(x, rest).items()]
                for c, vec in terms:
                    for w, c2 in vec.items():
                        _add_term(out, w, c * c2)
            images[mono] = {w: c / len(mono) for w, c in out.items()}
        return images[mono]

    maps = []
    for k in range(K + 1):
        monos = sym_monomials(pair.dim_n, k)
        matrix = Matrix.zeros(r_filt.dim(k), len(monos))
        for col, mono in enumerate(monos):
            for w, c in image(mono).items():
                matrix.data[r_filt.word_index[w]][col] = c
        maps.append(matrix)
    return maps


def straightening(pair, f_filt, r_filt, k: int) -> Matrix:
    """canon: F^k -> R^k, each free word straightened inside U(g)/U(g)h."""
    canon = Matrix.zeros(r_filt.dim(k), f_filt.dim(k))
    for wpos in range(f_filt.dim(k)):
        for mono, c in straighten_g(pair, f_filt.words[wpos]).items():
            canon.data[r_filt.word_index[mono]][wpos] = c
    return canon


def _qr_spanning(pair):
    """((a, x), a (x) x - x (x) a) for each h-letter a and each letter x."""
    dg = pair.g.dim
    for a in range(pair.dim_n, dg):
        for x in range(dg):
            vec = {a * dg + x: 1}
            key = x * dg + a
            vec[key] = vec.get(key, 0) - 1
            yield (a, x), {k: v for k, v in vec.items() if v}


@dataclass
class ReferenceQuadraticData:
    """qR with its contraction phi, found by elimination."""

    pair: object
    basis: list  # sparse vectors in g (x) g (letter-pair coordinates)
    basis_pairs: list  # the (h-letter, letter) pairs giving the basis
    phi: Matrix  # dim_g x dim(qR)
    coords: Coordinates  # coordinates over ``basis``; None outside qR
    phi_consistent: bool  # phi well defined on every spanning dependency

    @property
    def dim(self) -> int:
        return len(self.basis)


def reference_quadratic_data(pair) -> ReferenceQuadraticData:
    """The qR basis chosen by an echelon over the spanning set
    a (x) x - x (x) a, its coordinates over g (x) g by ``Coordinates``, phi as
    a ``Matrix`` on the basis and phi checked on every spanning vector: the
    reference for the letter pairs and the potential of ``koszul``."""
    dg = pair.g.dim
    span = Echelon(dg * dg)
    basis, basis_pairs = [], []
    for (a, x), vec in _qr_spanning(pair):
        if span.insert(vec) is not None:
            basis.append(vec)
            basis_pairs.append((a, x))
    phi = Matrix(len(basis), dg, [bracket_letters(pair, a, x) for a, x in basis_pairs]).transpose()
    coords = Coordinates(basis, dg * dg)
    consistent = True
    for (a, x), vec in _qr_spanning(pair):
        y = coords(vec)
        if y is None or phi.apply(y) != bracket_letters(pair, a, x):
            consistent = False
    return ReferenceQuadraticData(pair, basis, basis_pairs, phi, coords, consistent)


@dataclass
class ReferenceKTilde:
    """A basis of K^i found by elimination."""

    lists: list  # generating letter lists (h-subset..., g-letter)
    vectors: list  # their wedge vectors
    coords: Coordinates  # coordinates over ``vectors``
    expected_dim: int


def reference_ktilde(pair, i: int) -> ReferenceKTilde:
    """The lists of K^i chosen by an echelon over the wedge of every
    (i-1)-subset of h-letters with every letter, with ``Coordinates`` over
    the kept wedges: the reference for ``koszul.ktilde_basis``."""
    dg, dn, dh = pair.g.dim, pair.dim_n, pair.dim_h
    if i == 0:
        return ReferenceKTilde([()], [{0: 1}], Coordinates([{0: 1}], 1), 1)
    span = Echelon(dg ** i)
    lists, vectors = [], []
    for subset in itertools.combinations(range(dn, dg), i - 1):
        for x in range(dg):
            vec = _wedge_vector(subset + (x,), dg)
            if vec and span.insert(vec) is not None:
                lists.append(subset + (x,))
                vectors.append(vec)
    expected = math.comb(dh, i - 1) * dn + math.comb(dh, i)
    return ReferenceKTilde(lists, vectors, Coordinates(vectors, dg ** i), expected)


def reference_omission_templates(kt: ReferenceKTilde, lower: ReferenceKTilde, dg: int) -> list:
    """Per list of K^i, (letter, lower coordinate, sign) per omitted letter
    j, read from the ``Coordinates`` of the omitted wedge over the lower
    basis: the reference for ``koszul._omission_templates``."""
    out = []
    for letters in kt.lists:
        template = []
        for j, letter in enumerate(letters):
            coords = lower.coords(_wedge_vector(letters[:j] + letters[j + 1:], dg))
            assert coords is not None and len(coords) == 1 and abs(next(iter(coords.values()))) == 1
            [(t, c)] = coords.items()
            template.append((letter, t, -int(c) if j % 2 else int(c)))
        out.append(template)
    return out


def reference_relation_span(qd, d: int, positions) -> Echelon:
    """The span inside g^{(x) d} of the words w1 (x) r (x) w2, r in the qR
    basis, with r placed at each of ``positions`` (the degree of w1), by
    elimination: the reference for the word classes of ``koszul``."""
    dg = qd.pair.g.dim
    span = Echelon(dg ** d)
    for p in positions:
        lo = dg ** (d - 2 - p)
        for vec in qd.basis:
            for w1 in range(dg ** p):
                for w2 in range(lo):
                    span.insert({(w1 * dg * dg + c) * lo + w2: v for c, v in vec.items()})
    return span


def reference_word_classes(qd, d: int, positions) -> list:
    """rep[w] for each word w of g^{(x) d}: the largest word of w's class
    when w1 u w2 ~ w1 v w2 for each qR basis vector e_u - e_v, placed at
    each of ``positions`` (the degree of w1), by union-find over every word:
    the reference for the two-letter classes of ``koszul``."""
    dg = qd.pair.g.dim
    parent = list(range(dg ** d))

    def find(w: int) -> int:
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    binomials = []
    for vec in qd.basis:
        assert len(vec) == 2 and not sum(vec.values())
        binomials.append(tuple(vec))
    for p in positions:
        lo = dg ** (d - 2 - p)
        for w1 in range(dg ** p):
            for u, v in binomials:
                for w2 in range(lo):
                    a = find((w1 * dg * dg + u) * lo + w2)
                    b = find((w1 * dg * dg + v) * lo + w2)
                    if a != b:
                        parent[min(a, b)] = max(a, b)
    return [find(w) for w in range(len(parent))]


def reference_in_class_span(rep: list, vec: dict) -> bool:
    """Whether vec lies in the span of the e_w - e_{rep[w]}: its coefficients
    sum to zero on every class."""
    sums: dict = {}
    for w, v in vec.items():
        _add_term(sums, rep[w], v)
    return not sums


def subspace_intersection(us, vs, dim: int) -> list:
    """Basis of span(us) intersected with span(vs), as sparse rows.

    Zassenhaus: the rows (u, u) and (v, 0) of one echelon in 2 * dim columns;
    the rows that pivot past ``dim`` are (0, w), and their w span the
    intersection.
    """
    ech = Echelon(2 * dim)
    for vecs, tagged in ((us, True), (vs, False)):
        for vec in _int_rows([_in_range(vec, dim) for vec in vecs])[0]:
            if tagged:
                vec.update([(dim + c, v) for c, v in vec.items()])
            ech.insert(vec)
    return [{c - dim: Q(v) for c, v in ech.pivots[p].items()} for p in sorted(ech.pivots) if p >= dim]


def overlap_vectors(qd):
    """The left vectors qR (x) g at b * dg + w and the right vectors g (x) qR
    at u * dim(qR) + b, inside g^{(x) 3}."""
    dg = qd.pair.g.dim
    left = [{c * dg + w: v for c, v in vec.items()} for vec in qd.basis for w in range(dg)]
    right = [{u * dg * dg + c: v for c, v in vec.items()} for u in range(dg) for vec in qd.basis]
    return left, right


def reference_bg_conditions(qd) -> tuple:
    """((cond1, cond2), overlap dimension) of the straightening conditions
    with the overlap found by Zassenhaus, each overlap vector's left and
    right coordinates by a ``Coordinates`` echelon and phi applied on the
    coordinates over the eliminated qR basis: the reference for the K^3
    wedges and the potential of ``koszul.bg_conditions``."""
    dg = qd.pair.g.dim
    left_vectors, right_vectors = overlap_vectors(qd)
    left = Coordinates(left_vectors, dg ** 3)
    right = Coordinates(right_vectors, dg ** 3)
    phi_cols = qd.phi.transpose().data
    cond1 = cond2 = True
    overlap = subspace_intersection(left_vectors, right_vectors, dg ** 3)
    for d in overlap:
        y, z = left(d), right(d)
        assert y is not None and z is not None
        diff = {}
        for idx, coeff in y.items():
            b, w = divmod(idx, dg)
            for u, v in phi_cols[b].items():
                _add_term(diff, u * dg + w, coeff * v)
        for idx, coeff in z.items():
            u, b = divmod(idx, qd.dim)
            for w, v in phi_cols[b].items():
                _add_term(diff, u * dg + w, -coeff * v)
        coords = qd.coords(diff)
        if coords is None:
            cond1 = cond2 = False
        elif qd.phi.apply(coords):
            cond2 = False
    return (cond1, cond2), len(overlap)


def reference_koszul_acyclicity(pair, max_internal_degree: int):
    """``koszul.koszul_acyclicity`` with K^i found by elimination, every
    slice differential d_i built as dict columns over the omitted-wedge
    coordinates and its rank taken by inserting them into an ``Echelon``:
    the reference for the K^i lists and templates, the ranks of d_1 and d_2
    and the product test of d_1 o d_2 = 0."""
    dg = pair.g.dim
    qa = _QaDegrees(pair, max_internal_degree)
    max_i = min(max_internal_degree, pair.dim_h + 1)
    kt = [reference_ktilde(pair, i) for i in range(max_i + 1)]
    ktilde_dims_ok = all(len(kt[i].lists) == kt[i].expected_dim for i in range(max_i + 1))
    pair_class = [c for row in qa.times[1] for c in row] if max_i >= 2 else []
    containment_ok = all(
        _in_relations_at(vec, pair_class, dg, i, k)
        for i in range(2, max_i + 1)
        for k in range(i - 1)
        for vec in kt[i].vectors
    )
    # per position i and list of K^i, the signed coordinates of the wedge
    # with its j-th letter omitted over the lower K-tilde basis
    omitted = [None]
    for i in range(1, max_i + 1):
        per_list = []
        for letters in kt[i].lists:
            per_j = []
            for j in range(len(letters)):
                coords = kt[i - 1].coords(_wedge_vector(letters[:j] + letters[j + 1:], dg))
                assert coords is not None
                sign = -1 if j % 2 else 1
                # integral coordinates as ints, so that a column holds ints
                per_j.append({tp: sign * (ct.numerator if ct.denominator == 1 else ct) for tp, ct in coords.items()})
            per_list.append(per_j)
        omitted.append(per_list)
    slices = []
    for d in range(1, max_internal_degree + 1):
        top = min(d, max_i)
        dims = [qa.dim(d - i) * len(kt[i].lists) for i in range(top + 1)]
        cols = [None]
        for i in range(1, top + 1):
            lower = len(kt[i - 1].lists)
            cols_i = []
            for products in qa.times[d - i]:
                for letters, wedges in zip(kt[i].lists, omitted[i]):
                    col = {}
                    for letter, wedge in zip(letters, wedges):
                        for tp, ct in wedge.items():
                            _add_term(col, products[letter] * lower + tp, ct)
                    cols_i.append(col)
            cols.append(cols_i)
        dd_zero = all(not any(_int_mul(cols[i], cols[i - 1])) for i in range(2, top + 1))
        ranks = []
        for i in range(1, top + 1):
            span = Echelon(dims[i - 1])
            for col in cols[i]:
                span.insert(col)
            ranks.append(span.rank)
        exact = {i: dims[i] - ranks[i - 1] == (ranks[i] if i < top else 0) for i in range(1, top + 1)}
        slices.append(KoszulComplexSlice(d, dims, dd_zero, exact, dims[0] - ranks[0]))
    qa_dims = [qa.dim(d) for d in range(max_internal_degree + 1)]
    return KoszulReport(ktilde_dims_ok, containment_ok, slices, qa_dims)


# the h indices of the degenerate sl2-borel documents, by case name
SL2_DEGENERATE = {"sl2-degenerate h=0": [], "sl2-degenerate h=g": [0, 1, 2]}


def sl2_degenerate_document(indices) -> dict:
    """The sl2-borel problem document with h spanned by the given basis
    indices: ``[]`` is h = 0, ``[0, 1, 2]`` is h = g."""
    doc = catalog_get("sl2-borel").to_dict()
    doc["name"] = "sl2-degenerate"
    doc["h"] = {"indices": indices}
    return doc


def reference_h_stable_complement(pair):
    """(t, Dt) of ``engine.h_stable_complement`` from its equations written out
    over the letter table, or None: [h_a, y_r] lies in span(y) exactly when its
    h-part is that of the y-combination with its n-part, so with
    [u, v] = ints[u][v] / D over the letters, for each a, r and c:
    sum_b ints[a][b][c] t[b][r] - sum_(s < dim n) ints[a][r][s] t[c][s] = -ints[a][r][c],
    the h-letters a, b, c read as dim n + a and so on: dim h * dim n unknowns t[b][r]."""
    ints, dn, dh = _letter_ints(pair)[0], pair.dim_n, pair.dim_h
    bcol = dh * dn
    rows = []
    for a in range(dh):
        act = ints[dn + a]
        for r in range(dn):
            for c in range(dh):
                row: dict = {}
                for b in range(dh):
                    _add_term(row, b * dn + r, act[dn + b].get(dn + c, 0))
                for s, v in act[r].items():
                    if s < dn:
                        _add_term(row, c * dn + s, -v)
                if act[r].get(dn + c):
                    row[bcol] = -act[r][dn + c]
                rows.append(row)
    sol = solve(rows, bcol)
    if sol is None:
        return None
    (t,), dt = _int_rows([sol])
    return [[t.get(b * dn + r, 0) for r in range(dn)] for b in range(dh)], dt


def reference_dimension_ranks(pair, side: str, K: int) -> list:
    """The rank codimensions of ``dimension_identity_check`` by elimination
    over every word of degree <= K in all of g: the core placements
    w1 (x y - y x - [x, y]) w2 at every right factor w2, and each word w a,
    a in h, which trivial coefficients send to zero, inserted as a row of
    its own, stage k holding the relations of degree <= k."""
    dg, dn = pair.g.dim, pair.dim_n
    index = {}
    for k in range(K + 1):
        for w in itertools.product(range(dg), repeat=k):
            index[w] = len(index)
    if side == "F":
        rel_pairs = [(a, x) for a in range(dn, dg) for x in range(dg)]
    else:
        rel_pairs = [(x, y) for x in range(dg) for y in range(x)]
    ints, D = _letter_ints(pair)
    cores = [[((x, y), D), ((y, x), -D)] + [((u,), -c) for u, c in ints[x][y].items()] for x, y in rel_pairs]
    span = Echelon(len(index))
    rank_codims = []
    for k in range(K + 1):
        if k >= 2:
            for core in cores:
                for k1 in range(k - 1):
                    for w1 in itertools.product(range(dg), repeat=k1):
                        for w2 in itertools.product(range(dg), repeat=k - 2 - k1):
                            vec = {}
                            for mid, c in core:
                                _add_term(vec, index[w1 + mid + w2], c)
                            span.insert(vec)
        if k >= 1:
            for w in itertools.product(range(dg), repeat=k - 1):
                for a in range(pair.dim_h):
                    span.insert({index[w + (dn + a,)]: 1})
        rank_codims.append(sum(dg ** i for i in range(k + 1)) - span.rank)
    return rank_codims


def _primitive(row: dict) -> dict:
    """An int row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


class ReferenceEchelon:
    """A plain echelon with the rescanning loop, the reference for
    ``Echelon``'s pivots, RREF rows, ``reduce`` and ``solution``.  Its pivot
    rows are primitive with a positive lead and zero left of their pivot, but
    not reduced against each other.  Each step rescans the row for its
    smallest pivot hit, forms a row - b p (a the pivot row's lead, b the row's
    entry) and strips the content (or takes it into the scale); ``insert`` and
    ``reduce`` clear each vector with ``_int_rows`` on the way in.
    ``back_reduce`` builds the rational RREF right to left, and ``solution``
    back-substitutes over the pivots in descending column order."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.pivots = {}

    def _reduce_int(self, row, scale, strip):
        pivots = self.pivots
        while True:
            hit = -1
            for c in row:
                if c in pivots and (hit < 0 or c < hit):
                    hit = c
            if hit < 0:
                return row, scale
            p = pivots[hit]
            a = p[hit]
            b = row[hit]
            new = {}
            for c, v in row.items():
                if c != hit:
                    new[c] = a * v
            for c, v in p.items():
                if c == hit:
                    continue
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = new
            if strip:
                row = _primitive(row)
            else:
                scale *= a
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                    if g == 1:
                        break
                g = math.gcd(g, scale)
                if g > 1:
                    scale //= g
                    row = {c: v // g for c, v in row.items()}

    def reduce(self, vec):
        (row,), scale = _int_rows((vec,))
        row, scale = self._reduce_int(row, scale, strip=False)
        return {c: Q(v, scale) for c, v in row.items()}

    def insert(self, vec):
        (row,), _ = _int_rows((vec,))
        row, _ = self._reduce_int(_primitive(row), 1, strip=True)
        if not row:
            return None
        c = min(row)
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        self.pivots[c] = row
        return c

    def back_reduce(self):
        # a row holds no pivot column left of its own, so it is final once
        # the rows of the pivot columns it holds, finished before it, are
        # subtracted
        pivots = self.pivots
        for c in sorted(pivots, reverse=True):
            row = {k: Q(v, pivots[c][c]) for k, v in pivots[c].items()}
            for k in [k for k in row if k != c and k in pivots]:
                _axpy(row, -row[k], pivots[k])
            pivots[c] = row

    def solution(self):
        # x_c = (row_c[bcol] - sum_{j > c} row_c[j] x_j) / row_c[c]
        bcol = self.ncols - 1
        if bcol in self.pivots:
            return None
        x = {}
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            s = row.get(bcol, 0)
            for j, v in row.items():
                if j in x:
                    s -= v * x[j]
            if s:
                x[c] = Q(s) / row[c]
        return x


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
