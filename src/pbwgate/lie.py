"""Lie algebras, subalgebra inclusions and the h-module constructors.

A Lie algebra is a table of structure constants over the rationals; an
inclusion pair carries an injective embedding matrix for h, the canonical
echelon complement realizing n = g/h, and the linear splitting sigma: n -> g.
All module constructors fix lexicographic bases so that downstream matrices
(cochains, filtration levels) are reproducible.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property

from .linalg import Coordinates, Echelon, Matrix, Q, _add_term, _columns, _common_scale, _int_rows
from .linalg import _lowest_terms, _products_cancel
from .record import Record

Vec = dict  # sparse vector: basis index -> Fraction


class NotInjectiveError(ValueError):
    """The candidate embedding matrix has a kernel."""


class NotSubalgebraError(ValueError):
    """The candidate subspace is not closed under the bracket."""

    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"bracket of basis elements {i} and {j} leaves the subspace")


def _blocks(rows: list, size: int, count: int) -> tuple:
    """``rows`` cut into ``count`` consecutive blocks of ``size`` rows."""
    return tuple(rows[k * size:(k + 1) * size] for k in range(count))


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    ``int_table = (ints, scale)`` holds the table once, over one common
    denominator in lowest terms: [x_i, x_j] = ints[i][j] / scale, zeros
    dropped.  The constructor clears ``table[i][j]`` (int or Fraction
    entries) as given, without checking it, so that validation can report
    antisymmetry and Jacobi violations as data rather than refusing to build.
    """

    def __init__(self, dim: int, labels: Sequence[str] | None = None, table=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        ints, scale = _int_rows([table[i][j] if table else {} for i in range(dim) for j in range(dim)])
        self.int_table = _blocks(ints, dim, dim), scale

    @classmethod
    def from_pairs(cls, dim: int, pairs, labels: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from (i, j, {k: c}) entries for i < j, filling antisymmetry."""
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for i, j, coeffs in pairs:
            table[i][j] = coeffs
            table[j][i] = {k: -v for k, v in coeffs.items()}
        return cls(dim, labels, table)

    def _int_bracket(self, x: dict, y: dict) -> dict:
        """[x, y] of two int vectors times the table's scale, zeros kept."""
        table = self.int_table[0]
        acc: dict = {}
        for i, xi in x.items():
            row = table[i]
            for j, yj in y.items():
                p = xi * yj
                for k, c in row[j].items():
                    acc[k] = acc.get(k, 0) + p * c
        return acc

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


class ValidationIssue(Record):
    kind: str  # "antisymmetry" | "jacobi"
    indices: tuple
    defect: Vec


class LieValidation(Record):
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_lie(alg: LieAlgebra) -> LieValidation:
    """Report every violated antisymmetry pair and Jacobi triple, summed in
    ints over the table (a Jacobi term over its scale squared)."""
    ints, scale = alg.int_table
    issues = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            defect = dict(ints[i][j])
            if i != j:
                for k, v in ints[j][i].items():
                    _add_term(defect, k, v)
            if defect:
                issues.append(ValidationIssue("antisymmetry", (i, j), {k: Q(v, scale) for k, v in defect.items()}))
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        defect = {}
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for c, v in alg._int_bracket(ints[x][y], {z: 1}).items():
                _add_term(defect, c, v)
        if defect:
            issues.append(ValidationIssue("jacobi", (i, j, k), {c: Q(v, scale * scale) for c, v in defect.items()}))
    return LieValidation(issues)


class LieModule:
    """Finite-dimensional module, held once as its int form: ``mats[a]`` is
    the action of basis element a as int rows over the one ``scale`` of all
    a, in lowest terms, so that equal actions have equal forms."""

    def __init__(self, algebra: LieAlgebra, dim: int, action: Sequence[Matrix]):
        """The module acting by the matrices ``action``, cleared once."""
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per acting basis element")
        if any(m.rows != dim or m.cols != dim for m in action):
            raise ValueError("action matrix shape mismatch")
        self.algebra, self.dim = algebra, dim
        self.mats, self.scale = int_matrices(action)

    @classmethod
    def from_ints(cls, algebra: LieAlgebra, dim: int, mats: Sequence[list], scale: int) -> "LieModule":
        """The module acting by mats[a] / scale (int rows, not copied), in lowest terms."""
        out = cls.__new__(cls)
        rows, out.scale = _lowest_terms([r for m in mats for r in m], scale)
        out.algebra, out.dim, out.mats = algebra, dim, _blocks(rows, dim, algebra.dim)
        return out

    @cached_property
    def action(self) -> tuple:
        """The action matrices in Fractions, derived from the int form on first read."""
        s = self.scale
        return tuple(Matrix(self.dim, self.dim, [{c: Q(v, s) for c, v in r.items()} for r in m]) for m in self.mats)

    def act_vec(self, x: Vec) -> list:
        """The action of ``x`` (int coefficients) as int rows over ``scale``:
        sum_a x[a] mats[a], row by row, zeros dropped."""
        rows = [{} for _ in range(self.dim)]
        for a, c in x.items():
            for acc, row in zip(rows, self.mats[a]):
                for k, v in row.items():
                    _add_term(acc, k, c * v)
        return rows

    def compatibility_defects(self) -> list:
        """Pairs (i, j) where action([x_i,x_j]) != [action(x_i), action(x_j)],
        each tested in ints by ``bracket_law_holds``."""
        table, tscale = self.algebra.int_table
        pairs = itertools.combinations(range(self.algebra.dim), 2)
        return [(i, j) for i, j in pairs if not bracket_law_holds(self.mats, self.scale, i, j, table[i][j], tscale)]

    def key(self) -> tuple:
        """The int form as a hashable value: equal keys exactly for equal actions."""
        return (self.dim, self.scale) + tuple(tuple(tuple(sorted(r.items())) for r in m) for m in self.mats)

    def __repr__(self) -> str:
        return f"LieModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


class ModuleMap:
    """Linear map between modules over the same acting algebra, held once as
    its int form: M = rows / scale, one int row per basis vector of the target."""

    def __init__(self, source: LieModule, target: LieModule, matrix: Matrix):
        """The map given by ``matrix`` (target.dim x source.dim), cleared once."""
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("shape mismatch in product")
        self.source, self.target = source, target
        self.rows, self.scale = _int_rows(matrix.data)

    @classmethod
    def from_ints(cls, source: LieModule, target: LieModule, rows: list, scale: int) -> "ModuleMap":
        """The map rows / scale, its target.dim int rows taken as they are (not copied)."""
        out = cls.__new__(cls)
        out.source, out.target, out.rows, out.scale = source, target, rows, scale
        return out

    @cached_property
    def matrix(self) -> Matrix:
        """The map in Fractions, derived from the int form on first read."""
        s = self.scale
        return Matrix(self.target.dim, self.source.dim, [{c: Q(v, s) for c, v in r.items()} for r in self.rows])

    def is_equivariant(self) -> bool:
        """Whether M A_i = B_i M for every i, A and B the source and target
        actions: in ints, s_B (R_M R_A) = s_A (R_B R_M) for M = R_M / s_M,
        A_i = R_A / s_A, B_i = R_B / s_B (s_M cancels), streamed over the stored rows."""
        m, sa, sb = self.rows, self.source.scale, self.target.scale
        return all(_products_cancel(self.target.dim, [(sb, m, a), (-sa, b, m)]) for a, b in zip(self.source.mats, self.target.mats))

    def __repr__(self) -> str:
        return f"ModuleMap({self.target.dim}x{self.source.dim} over scale {self.scale})"


def int_matrices(mats: Sequence[Matrix]) -> tuple:
    """Square matrices of one size cleared to int rows over one common scale:
    (one int row list per matrix, scale)."""
    rows, scale = _int_rows([r for m in mats for r in m.data])
    return _blocks(rows, mats[0].rows if mats else 0, len(mats)), scale


def bracket_law_holds(mats: Sequence[list], scale: int, i: int, j: int, combo: dict, cscale: int) -> bool:
    """Whether sum_k (combo[k] / cscale) A_k == [A_i, A_j] for the matrices
    A_k = mats[k] / scale given as int rows: times cscale * scale^2, whether
    scale * sum_k combo[k] mats[k] == cscale * (mats[i] mats[j] - mats[j] mats[i]),
    row by row in ints."""
    terms = [(scale * n, mats[k], None) for k, n in combo.items()]
    return _products_cancel(len(mats[i]), terms + [(-cscale, mats[i], mats[j]), (cscale, mats[j], mats[i])])


class InclusionPair:
    """Subalgebra inclusion h -> g with adapted basis and splitting sigma.

    The adapted basis lists the embedded h-basis first and then the standard
    basis vectors at the echelon complement coordinates; sigma embeds the
    complement coordinates back into g.  Letters (used by the word rewriting
    in the engine) index the adapted basis with the n-letters first:
    letter r < dim_n is sigma(n_r), letter dim_n + a is the a-th h generator.

    The letter coordinates of each standard basis vector of g are found
    once, when the pair is built; h's structure constants and the letter
    bracket table expand their brackets over the letters as sparse int
    products with them.
    """

    def __init__(self, g: LieAlgebra, h_embedding: Matrix, complement: Sequence[int]):
        self.g = g
        self.h_embedding = h_embedding
        self.dim_h = dh = h_embedding.cols
        self.dim_n = dn = g.dim - dh
        self.complement = tuple(complement)
        h_cols = h_embedding.transpose().data
        n_cols = [{r: Q(1)} for r in self.complement]
        coords = Coordinates(h_cols + n_cols, g.dim)
        if coords.rank != g.dim or len(n_cols) != dn:
            raise ValueError("complement does not complete the subalgebra to a basis of g")
        self.sigma = Matrix(len(n_cols), g.dim, n_cols).transpose()
        # (int rows, c): letter u is the g vector rows[u] / c
        self._letter_cols = _int_rows(n_cols + h_cols)
        # (int rows, s): standard basis vector i of g is sum_u rows[i][u] / s
        # letter u; a complement coordinate is the n-letter at its position,
        # and the other dim h are solved once each
        n_letter = {r: {pos: Q(1)} for pos, r in enumerate(self.complement)}
        self._inverse = _int_rows([
            n_letter.get(i) or {(j - dh if j >= dh else dn + j): v for j, v in coords({i: Q(1)}).items()}
            for i in range(g.dim)
        ])
        self.h = self._induced_subalgebra(h_cols)
        self.n_labels = tuple(g.labels[r] for r in self.complement)
        self._caches: dict = {}

    def _bracket_ints(self, letter_pairs) -> tuple:
        """([letter u, letter v] for each (u, v) of ``letter_pairs``, expanded
        over the letters, as int rows over one scale: the bracket of the two
        letter columns over g's int structure table, then its sparse product
        with the letter coordinates of g's basis."""
        cols, c = self._letter_cols
        inverse, s = self._inverse
        out = []
        for u, v in letter_pairs:
            z: dict = {}
            for k, w in self.g._int_bracket(cols[u], cols[v]).items():
                if w:
                    for l, x in inverse[k].items():
                        z[l] = z.get(l, 0) + w * x
            out.append({l: x for l, x in sorted(z.items()) if x})
        return out, c * c * self.g.int_table[1] * s

    def _induced_subalgebra(self, h_cols) -> LieAlgebra:
        """h with the structure constants of its basis read from the letter
        expansion of each [h_a, h_b]; NotSubalgebraError at the first (a, b),
        row by row, whose bracket has an n-letter part."""
        dh, dn = self.dim_h, self.dim_n
        ab = list(itertools.product(range(dh), repeat=2))
        brackets, scale = self._bracket_ints([(dn + a, dn + b) for a, b in ab])
        for (a, b), z in zip(ab, brackets):
            if any(l < dn for l in z):
                raise NotSubalgebraError(a, b)
        ints, scale = _lowest_terms([{l - dn: x for l, x in z.items()} for z in brackets], scale)
        labels = tuple(f"h{a}" for a in range(dh))
        if all(len(self.h_embedding.data[i]) <= 1 for i in range(self.g.dim)):
            # coordinate subalgebra: reuse the g labels
            picked = [self.g.labels[c] for col in h_cols if len(col) == 1 for c, v in col.items() if v == 1]
            if len(picked) == dh:
                labels = tuple(picked)
        h = LieAlgebra(dh, labels)
        h.int_table = _blocks(ints, dh, dh), scale
        return h

    def __repr__(self) -> str:
        return f"InclusionPair(dim_g={self.g.dim}, dim_h={self.dim_h}, complement={self.complement})"


def _letter_ints(pair: InclusionPair) -> tuple:
    """(ints, D): the letter bracket table over one common denominator in
    lowest terms, so that [letter u, letter v] = ints[u][v] / D; built once
    per pair, on first use, by one ``_bracket_ints`` pass over u < v and
    antisymmetry."""
    cache = pair._caches
    if "letter_ints" not in cache:
        dg = pair.g.dim
        upper = list(itertools.combinations(range(dg), 2))
        brackets, scale = pair._bracket_ints(upper)
        ints = [[{} for _ in range(dg)] for _ in range(dg)]
        for (u, v), z in zip(upper, brackets):
            ints[u][v] = z
            ints[v][u] = {l: -x for l, x in z.items()}
        rows, scale = _lowest_terms([e for row in ints for e in row], scale)
        cache["letter_ints"] = _blocks(rows, dg, dg), scale
    return cache["letter_ints"]


def make_pair(g: LieAlgebra, h_embedding, complement: Sequence[int] | None = None) -> InclusionPair:
    """Validated inclusion pair with canonical echelon complement.

    ``h_embedding`` may be a Matrix, a list of columns, or a list of basis
    indices of g.  Raises NotInjectiveError / NotSubalgebraError.  A custom
    coordinate ``complement`` may be supplied to exercise independence of the
    splitting; the default is the echelon complement (standard basis vectors
    at the non-pivot coordinates of the embedded subspace).
    """
    if isinstance(h_embedding, Matrix):
        emb = h_embedding
    elif h_embedding and all(isinstance(x, int) for x in h_embedding):
        emb = Matrix(len(h_embedding), g.dim, [{r: Q(1)} for r in h_embedding]).transpose()
    else:
        emb = Matrix.from_rows(h_embedding, cols=g.dim).transpose()
    if emb.rows != g.dim:
        raise ValueError("embedding has wrong ambient dimension")
    ech = Echelon(g.dim)
    for col in _int_rows(emb.transpose().data)[0]:
        ech.insert(col)
    if ech.rank != emb.cols:
        raise NotInjectiveError("embedding matrix has dependent columns")
    if complement is None:
        complement = ech.free_columns()
    return InclusionPair(g, emb, complement)


# -- module constructors ----------------------------------------------------


def quotient_module(pair: InclusionPair) -> LieModule:
    """The h-module n on the complement coordinates: a . x = proj [i(a), sigma(x)];
    built once per pair."""
    cache = pair._caches
    if "quotient_module" not in cache:
        (ints, D), dn = _letter_ints(pair), pair.dim_n
        mats = [[{} for _ in range(dn)] for _ in range(pair.dim_h)]
        for a, rows in enumerate(mats):
            # column r is the n-part of [i(a), sigma_r]
            for r in range(dn):
                for s, v in ints[dn + a][r].items():
                    if s < dn:
                        rows[s][r] = v
        cache["quotient_module"] = LieModule.from_ints(pair.h, dn, mats, D)
    return cache["quotient_module"]


def adjoint_module(alg: LieAlgebra) -> LieModule:
    """ad(x_i) read off the int table: column j of ad(x_i) is [x_i, x_j]."""
    ints, scale = alg.int_table
    return LieModule.from_ints(alg, alg.dim, [_columns(row, alg.dim) for row in ints], scale)


def trivial_module(alg: LieAlgebra, dim: int = 1) -> LieModule:
    return LieModule.from_ints(alg, dim, [[{} for _ in range(dim)] for _ in range(alg.dim)], 1)


def _lifts(m: LieModule, n: LieModule) -> tuple:
    """(S, (S/s_M, S/s_N)), S the common scale of two modules over one algebra."""
    if m.algebra is not n.algebra and m.algebra.int_table != n.algebra.int_table:
        raise ValueError("modules over different algebras")
    return _common_scale(m.scale, n.scale)


def _kronecker_sum(fa: int, a: Sequence[dict], fb: int, b: Sequence[dict]) -> list:
    """fa A (x) 1 + fb 1 (x) B for square int matrices A and B given as rows,
    in the lex tensor basis (index i_A * dim B + i_B), zeros dropped."""
    d = len(b)
    out = []
    for i, arow in enumerate(a):
        for k, brow in enumerate(b):
            row = {j * d + k: fa * v for j, v in arow.items()}
            for l, v in brow.items():
                _add_term(row, i * d + l, fb * v)
            out.append(row)
    return out


def tensor_module(m: LieModule, n: LieModule) -> LieModule:
    """Leibniz action on M (x) N; basis index = i_M * dim_N + i_N, in ints."""
    scale, (fm, fn) = _lifts(m, n)
    mats = [_kronecker_sum(fm, m.mats[a], fn, n.mats[a]) for a in range(m.algebra.dim)]
    return LieModule.from_ints(m.algebra, m.dim * n.dim, mats, scale)


def hom_module(m: LieModule, n: LieModule) -> LieModule:
    """Hom(M, N) with (x . f) = act_N(x) f - f act_M(x); basis E_{ij} at i*dimM + j,
    in ints: act_N(x) (x) 1 - 1 (x) act_M(x)^T."""
    scale, (fm, fn) = _lifts(m, n)
    mats = [_kronecker_sum(fn, n.mats[a], -fm, _columns(m.mats[a], m.dim)) for a in range(m.algebra.dim)]
    return LieModule.from_ints(m.algebra, m.dim * n.dim, mats, scale)


def sym_monomials(dim: int, k: int) -> list:
    return list(itertools.combinations_with_replacement(range(dim), k))


def sym_dim(n: int, k: int) -> int:
    """dim S^k of an n-dimensional space, C(n + k - 1, k); the empty monomial
    makes sym_dim(0, 0) = 1."""
    return math.comb(n + k - 1, k) if n else int(k == 0)


def ext_monomials(dim: int, k: int) -> list:
    return list(itertools.combinations(range(dim), k))


def sort_with_sign(tup) -> tuple | None:
    """Sort an index tuple, tracking the permutation sign; None on duplicates."""
    lst = list(tup)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return None
    return tuple(lst), sign


def sym_power_module(m: LieModule, k: int) -> LieModule:
    """Symmetric power with derivation action on the sorted monomial basis, in ints."""
    monos = sym_monomials(m.dim, k)
    index = {mono: i for i, mono in enumerate(monos)}
    dim = len(monos)
    mats = []
    for a in range(m.algebra.dim):
        cols = _columns(m.mats[a], m.dim)
        data = [dict() for _ in range(dim)]
        for cidx, mono in enumerate(monos):
            for pos in range(len(mono)):
                for i, c in cols[mono[pos]].items():
                    new = tuple(sorted(mono[:pos] + (i,) + mono[pos + 1:]))
                    _add_term(data[index[new]], cidx, c)
        mats.append(data)
    return LieModule.from_ints(m.algebra, dim, mats, m.scale)
