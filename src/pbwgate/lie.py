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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .linalg import Coordinates, Echelon, Matrix, Q, _add_term, _common_scale, _int_mul, _int_rows
from .linalg import _lowest_terms, _same_values, combination, qf, tensor_map

Vec = dict  # sparse vector: basis index -> Fraction


class NotInjectiveError(ValueError):
    """The candidate embedding matrix has a kernel."""


class NotSubalgebraError(ValueError):
    """The candidate subspace is not closed under the bracket."""

    def __init__(self, i: int, j: int):
        self.witness = (i, j)
        super().__init__(f"bracket of basis elements {i} and {j} leaves the subspace")


def _vec(entries) -> Vec:
    return {k: qf(v) for k, v in entries.items() if qf(v)}


def _int_table(table) -> tuple:
    """A square table of sparse vectors over one common denominator:
    (integer table, scale) with table[i][j] = integer table[i][j] / scale."""
    n = len(table)
    ints, scale = _int_rows([vec for row in table for vec in row])
    return tuple(tuple(ints[i * n:(i + 1) * n]) for i in range(n)), scale


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    ``table[i][j]`` is the sparse vector of [x_i, x_j]; the constructor stores
    the table exactly as given so that validation can report antisymmetry and
    Jacobi violations as data rather than refusing to build.
    """

    def __init__(self, dim: int, labels: Optional[Sequence[str]] = None, table=None):
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValueError("label count mismatch")
        if table is None:
            table = [[{} for _ in range(dim)] for _ in range(dim)]
        self.table = tuple(tuple(_vec(table[i][j]) for j in range(dim)) for i in range(dim))
        self._int_table = None  # built by the first bracket

    @classmethod
    def from_pairs(cls, dim: int, pairs, labels: Optional[Sequence[str]] = None) -> "LieAlgebra":
        """Build from (i, j, {k: c}) entries for i < j, filling antisymmetry."""
        table = [[{} for _ in range(dim)] for _ in range(dim)]
        for i, j, coeffs in pairs:
            cv = _vec(coeffs)
            table[i][j] = cv
            table[j][i] = {k: -v for k, v in cv.items()}
        return cls(dim, labels, table)

    def int_table(self) -> tuple:
        """``_int_table`` of the structure table, cleared once per algebra."""
        if self._int_table is None:
            self._int_table = _int_table(self.table)
        return self._int_table

    def bracket(self, x: Vec, y: Vec) -> Vec:
        """[x, y], accumulated in ints over the integer structure table and
        divided once per output entry."""
        table, scale = self.int_table()
        (xr,), xs = _int_rows((x,))
        (yr,), ys = _int_rows((y,))
        acc: dict = {}
        for i, xi in xr.items():
            row = table[i]
            for j, yj in yr.items():
                p = xi * yj
                for k, c in row[j].items():
                    acc[k] = acc.get(k, 0) + p * c
        den = xs * ys * scale
        if den == 1:
            return {k: Q(v) for k, v in acc.items() if v}
        return {k: Q(v, den) for k, v in acc.items() if v}

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={self.labels})"


@dataclass
class ValidationIssue:
    kind: str  # "antisymmetry" | "jacobi"
    indices: tuple
    defect: Vec


@dataclass
class LieValidation:
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_lie(alg: LieAlgebra) -> LieValidation:
    """Report every violated antisymmetry pair and Jacobi triple."""
    issues = []
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            defect: Vec = dict(alg.table[i][j])
            if i != j:
                for k, v in alg.table[j][i].items():
                    _add_term(defect, k, v)
            if defect:
                issues.append(ValidationIssue("antisymmetry", (i, j), defect))
    for i, j, k in itertools.combinations(range(alg.dim), 3):
        ei, ej, ek = ({i: Q(1)}, {j: Q(1)}, {k: Q(1)})
        defect = {}
        for term in (
            alg.bracket(alg.bracket(ei, ej), ek),
            alg.bracket(alg.bracket(ej, ek), ei),
            alg.bracket(alg.bracket(ek, ei), ej),
        ):
            for c, v in term.items():
                _add_term(defect, c, v)
        if defect:
            issues.append(ValidationIssue("jacobi", (i, j, k), defect))
    return LieValidation(issues)


class LieModule:
    """Finite-dimensional module, held once as its int form: ``mats[a]`` is
    the action of basis element a as int rows over the one ``scale`` of all
    a, in lowest terms, so that equal actions have equal forms."""

    def __init__(self, algebra: LieAlgebra, dim: int, action: Sequence[Matrix]):
        """The module acting by the matrices ``action``, cleared once."""
        if len(action) != algebra.dim:
            raise ValueError("need one action matrix per acting basis element")
        for m in action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix shape mismatch")
        rows, self.scale = _int_rows([r for m in action for r in m.data])
        self.algebra, self.dim, self.mats = algebra, dim, tuple(rows[a * dim:(a + 1) * dim] for a in range(algebra.dim))

    @classmethod
    def from_ints(cls, algebra: LieAlgebra, dim: int, mats: Sequence[list], scale: int) -> "LieModule":
        """The module acting by mats[a] / scale (int rows, not copied), in lowest terms."""
        out = cls.__new__(cls)
        rows, out.scale = _lowest_terms([r for m in mats for r in m], scale)
        out.algebra, out.dim, out.mats = algebra, dim, tuple(rows[a * dim:(a + 1) * dim] for a in range(algebra.dim))
        return out

    @cached_property
    def action(self) -> tuple:
        """The action matrices in Fractions, derived from the int form on first read."""
        s = self.scale
        return tuple(Matrix(self.dim, self.dim, [{c: Q(v, s) for c, v in r.items()} for r in m]) for m in self.mats)

    def int_matrix(self, a: int) -> Matrix:
        return Matrix(self.dim, self.dim, self.mats[a])

    def act_vec(self, x: Vec) -> list:
        """The action of ``x`` (int coefficients) as int rows over ``scale``."""
        return combination([self.int_matrix(a) for a in range(self.algebra.dim)], x, self.dim).data

    def compatibility_defects(self) -> list:
        """Pairs (i, j) where action([x_i,x_j]) != [action(x_i), action(x_j)],
        each tested in ints by ``bracket_law_holds``."""
        table, tscale = self.algebra.int_table()
        pairs = itertools.combinations(range(self.algebra.dim), 2)
        return [(i, j) for i, j in pairs if not bracket_law_holds(self.mats, self.scale, i, j, table[i][j], tscale)]

    def key(self) -> tuple:
        """The int form as a hashable value: equal keys exactly for equal actions."""
        return (self.dim, self.scale) + tuple(tuple(tuple(sorted(r.items())) for r in m) for m in self.mats)

    def __repr__(self) -> str:
        return f"LieModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


@dataclass
class ModuleMap:
    """Linear map between modules over the same acting algebra."""

    source: LieModule
    target: LieModule
    matrix: Matrix

    def is_equivariant(self) -> bool:
        """Whether M A_i = B_i M for every i, A and B the source and target
        actions: in ints, (M A_i) / s_A == (B_i M) / s_B row by row."""
        m = self.matrix
        if m.rows != self.target.dim or m.cols != self.source.dim:
            raise ValueError("shape mismatch in product")
        mi, _ = _int_rows(m.data)
        sa, sb = self.source.scale, self.target.scale
        for a, b in zip(self.source.mats, self.target.mats):
            for x, y in zip(_int_mul(mi, a), _int_mul(b, mi)):
                if not _same_values(x, sa, y, sb):
                    return False
        return True


def int_matrices(mats: Sequence[Matrix]) -> tuple:
    """Square matrices of one size cleared to int rows over one common scale:
    (one int row list per matrix, scale)."""
    rows, scale = _int_rows([r for m in mats for r in m.data])
    n = mats[0].rows if mats else 0
    return [rows[k * n:(k + 1) * n] for k in range(len(mats))], scale


def bracket_law_holds(mats: Sequence[list], scale: int, i: int, j: int, combo: dict, cscale: int) -> bool:
    """Whether sum_k (combo[k] / cscale) A_k == [A_i, A_j] for the matrices
    A_k = mats[k] / scale given as int rows: times cscale * scale^2, whether
    scale * sum_k combo[k] mats[k] == cscale * (mats[i] mats[j] - mats[j] mats[i]),
    row by row in ints."""
    ij = _int_mul(mats[i], mats[j])
    ji = _int_mul(mats[j], mats[i])
    for r, (x, y) in enumerate(zip(ij, ji)):
        acc: dict = {}
        for k, n in combo.items():
            for c, v in mats[k][r].items():
                acc[c] = acc.get(c, 0) + scale * n * v
        for c, v in x.items():
            acc[c] = acc.get(c, 0) - cscale * v
        for c, v in y.items():
            acc[c] = acc.get(c, 0) + cscale * v
        if any(acc.values()):
            return False
    return True


class InclusionPair:
    """Subalgebra inclusion h -> g with adapted basis and splitting sigma.

    The adapted basis lists the embedded h-basis first and then the standard
    basis vectors at the echelon complement coordinates; sigma embeds the
    complement coordinates back into g.  Letters (used by the word rewriting
    in the engine) index the adapted basis with the n-letters first:
    letter r < dim_n is sigma(n_r), letter dim_n + a is the a-th h generator.
    """

    def __init__(self, g: LieAlgebra, h_embedding: Matrix, complement: Sequence[int]):
        self.g = g
        self.h_embedding = h_embedding
        self.dim_h = h_embedding.cols
        self.dim_n = g.dim - self.dim_h
        self.complement = tuple(complement)
        h_cols = h_embedding.transpose().data
        n_cols = [{r: Q(1)} for r in self.complement]
        self._coords = Coordinates(h_cols + n_cols, g.dim)
        if self._coords.rank != g.dim:
            raise ValueError("complement does not complete the subalgebra to a basis of g")
        self.sigma = Matrix(len(n_cols), g.dim, n_cols).transpose()
        self._letter_cols = n_cols + h_cols
        self.h = self._induced_subalgebra(h_cols)
        self.n_labels = tuple(g.labels[r] for r in self.complement)
        self._bracket_table = None
        self._caches: dict = {}

    # -- coordinates -------------------------------------------------------

    def _adapted(self, x: Vec) -> Vec:
        """Sparse adapted coordinates (h-part, then n-part) of a vector of g."""
        sol = self._coords(_vec(x))
        if sol is None:
            raise AssertionError("adapted basis does not span g")
        return sol

    def letter_coords(self, x: Vec) -> Vec:
        """Expand a g vector over the letters (n-letters then h-letters)."""
        c = self._adapted(x)
        dh = self.dim_h
        out: Vec = {i - dh: v for i, v in c.items() if i >= dh}
        out.update((self.dim_n + a, v) for a, v in c.items() if a < dh)
        return out

    def bracket_letters(self, u: int, v: int) -> Vec:
        """[letter u, letter v] expanded over letters (cached; solved for u < v, then antisymmetry)."""
        if self._bracket_table is None:
            cols = self._letter_cols
            self._bracket_table = table = [[{} for _ in cols] for _ in cols]
            for a, b in itertools.combinations(range(len(cols)), 2):
                table[a][b] = self.letter_coords(self.g.bracket(cols[a], cols[b]))
                table[b][a] = {i: -v for i, v in table[a][b].items()}
        return self._bracket_table[u][v]

    def _induced_subalgebra(self, h_cols) -> LieAlgebra:
        dh = self.dim_h
        table = [[{} for _ in range(dh)] for _ in range(dh)]
        coords = Coordinates(h_cols, self.g.dim)
        for a in range(dh):
            for b in range(dh):
                sol = coords(self.g.bracket(h_cols[a], h_cols[b]))
                if sol is None:
                    raise NotSubalgebraError(a, b)
                table[a][b] = sol
        labels = tuple(f"h{a}" for a in range(dh))
        if all(len(self.h_embedding.data[i]) <= 1 for i in range(self.g.dim)):
            # coordinate subalgebra: reuse the g labels
            picked = [self.g.labels[c] for col in h_cols if len(col) == 1 for c, v in col.items() if v == 1]
            if len(picked) == dh:
                labels = tuple(picked)
        return LieAlgebra(dh, labels, table)

    def __repr__(self) -> str:
        return f"InclusionPair(dim_g={self.g.dim}, dim_h={self.dim_h}, complement={self.complement})"


def make_pair(g: LieAlgebra, h_embedding, complement: Optional[Sequence[int]] = None) -> InclusionPair:
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
        dn = pair.dim_n
        action = []
        for a in range(pair.dim_h):
            # column r is the n-part of [i(a), sigma_r]
            cols = [{s: v for s, v in pair.bracket_letters(dn + a, r).items() if s < dn} for r in range(dn)]
            action.append(Matrix(dn, dn, cols).transpose())
        cache["quotient_module"] = LieModule(pair.h, dn, action)
    return cache["quotient_module"]


def adjoint_module(alg: LieAlgebra) -> LieModule:
    action = [Matrix(alg.dim, alg.dim, list(alg.table[i])).transpose() for i in range(alg.dim)]
    return LieModule(alg, alg.dim, action)


def trivial_module(alg: LieAlgebra, dim: int = 1) -> LieModule:
    return LieModule.from_ints(alg, dim, [[{} for _ in range(dim)] for _ in range(alg.dim)], 1)


def _lifts(m: LieModule, n: LieModule) -> tuple:
    """(S, S/s_N times the identity of M, S/s_M times that of N), S the common scale."""
    if m.algebra is not n.algebra and m.algebra.table != n.algebra.table:
        raise ValueError("modules over different algebras")
    scale, (fm, fn) = _common_scale(m.scale, n.scale)
    return scale, *(Matrix(d, d, [{i: f} for i in range(d)]) for d, f in ((m.dim, fn), (n.dim, fm)))


def tensor_module(m: LieModule, n: LieModule) -> LieModule:
    """Leibniz action on M (x) N; basis index = i_M * dim_N + i_N, in ints."""
    scale, idm, idn = _lifts(m, n)
    mats = [(tensor_map(m.int_matrix(a), idn) + tensor_map(idm, n.int_matrix(a))).data for a in range(m.algebra.dim)]
    return LieModule.from_ints(m.algebra, m.dim * n.dim, mats, scale)


def hom_module(m: LieModule, n: LieModule) -> LieModule:
    """Hom(M, N) with (x . f) = act_N(x) f - f act_M(x); basis E_{ij} at i*dimM + j, in ints."""
    scale, idm, idn = _lifts(m, n)
    mats = [
        (tensor_map(n.int_matrix(a), idm) - tensor_map(idn, m.int_matrix(a).transpose())).data for a in range(m.algebra.dim)
    ]
    return LieModule.from_ints(m.algebra, m.dim * n.dim, mats, scale)


def sym_monomials(dim: int, k: int) -> list:
    return list(itertools.combinations_with_replacement(range(dim), k))


def sym_dim(n: int, k: int) -> int:
    """dim S^k of an n-dimensional space, C(n + k - 1, k); the empty monomial
    makes sym_dim(0, 0) = 1."""
    return math.comb(n + k - 1, k) if n else int(k == 0)


def ext_monomials(dim: int, k: int) -> list:
    return list(itertools.combinations(range(dim), k))


def sort_with_sign(tup) -> Optional[tuple]:
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
        cols = m.int_matrix(a).transpose().data
        data = [dict() for _ in range(dim)]
        for cidx, mono in enumerate(monos):
            for pos in range(len(mono)):
                for i, c in cols[mono[pos]].items():
                    new = tuple(sorted(mono[:pos] + (i,) + mono[pos + 1:]))
                    _add_term(data[index[new]], cidx, c)
        mats.append(data)
    return LieModule.from_ints(m.algebra, dim, mats, m.scale)
