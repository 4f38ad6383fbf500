"""Desk-scale verification that the quadratic companion algebra behaves.

qA is the tensor algebra on g modulo the quadratic relations
qR = span{  a (x) x  -  x (x) a  :  a in h, x in g }, the quadratic part of
the rewriting relations.  This module checks, by exact rank computations:

* the two linear conditions on (qR, phi) that make the filtered algebra's
  associated graded agree with qA (phi sends a (x) x - x (x) a to [a, x]);
* the graded dimension identity  dim qA_k = sum dim_n^i * C(dim_h + j - 1, j);
* bounded-degree exactness of the Koszul complex built from the subspaces
  K^i = (wedge^{i-1} h) wedge g inside g^{(x) i}.

Everything is phrased over the adapted letters (n-letters first, h-letters
last), which makes every relation vector a binomial e_u - e_v.  So the
relation span of degree k is a binomial span, its rank counted without
elimination as the words of degree k minus the classes of words the
relations join, and dim qA_k is the number of those classes.  The classes
of degree k are built from the basis words of degree k - 1 times a letter,
so no check visits every word of g^{(x) k}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .lie import InclusionPair, sort_with_sign, sym_dim
from .linalg import Coordinates, Echelon, Matrix, _add_term, _int_mul, _integral

Vec = dict


@dataclass
class QuadraticData:
    """The relation space qR with its contraction phi, over the letters."""

    pair: InclusionPair
    basis: list  # sparse vectors in g (x) g (letter-pair coordinates)
    basis_pairs: list  # the (h-letter, letter) pairs giving the basis
    phi: Matrix  # dim_g x dim(qR)
    phi_consistent: bool  # phi well defined on every spanning dependency

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def coords(self) -> Coordinates:
        """Coordinates over ``basis`` of a vector of g (x) g; None outside qR."""
        return Coordinates(self.basis, self.pair.g.dim ** 2)


def _qr_spanning(pair: InclusionPair):
    dg = pair.g.dim
    dn = pair.dim_n
    for a in range(dn, dg):
        for x in range(dg):
            vec = {a * dg + x: 1}
            key = x * dg + a
            vec[key] = vec.get(key, 0) - 1
            yield (a, x), {k: v for k, v in vec.items() if v}


def quadratic_data(pair: InclusionPair) -> QuadraticData:
    dg = pair.g.dim
    span = Echelon(dg * dg)
    basis = []
    basis_pairs = []
    for (a, x), vec in _qr_spanning(pair):
        if span.insert(vec) is not None:
            basis.append(vec)
            basis_pairs.append((a, x))
    phi = Matrix(len(basis), dg, [pair.bracket_letters(a, x) for a, x in basis_pairs]).transpose()
    qd = QuadraticData(pair, basis, basis_pairs, phi, True)
    for (a, x), vec in _qr_spanning(pair):
        y = qd.coords(vec)
        if y is None or phi.apply(y) != pair.bracket_letters(a, x):
            qd.phi_consistent = False
            break
    return qd


def _quadratic_data(pair: InclusionPair) -> QuadraticData:
    """``quadratic_data(pair)``, built once per pair."""
    cache = pair._caches
    if "quadratic_data" not in cache:
        cache["quadratic_data"] = quadratic_data(pair)
    return cache["quadratic_data"]


def _overlap(qd: QuadraticData) -> list:
    """A basis of qR (x) g intersect g (x) qR as coordinate pairs (y, z):
    sum_j y_j L_j = sum_k z_k R_k over the vectors L_j = qR_b (x) w of
    qR (x) g (j = b * dg + w) and R_k = u (x) qR_b of g (x) qR
    (k = u * dim(qR) + b).  The rows (L_j | e_j) and (R_k | e_{n_L + k}) go
    into one echelon; a row pivoting in the tags is (0 | y | -z).  The L_j
    are independent and so are the R_k, so these rows give a basis."""
    dg = qd.pair.g.dim
    dim3 = dg ** 3
    n_left = qd.dim * dg
    ech = Echelon(dim3 + 2 * n_left)
    tag = dim3
    for vectors in (
        ({c * dg + w: v for c, v in vec.items()} for vec in qd.basis for w in range(dg)),
        ({u * dg * dg + c: v for c, v in vec.items()} for u in range(dg) for vec in qd.basis),
    ):
        for row in vectors:
            row[tag] = 1
            tag += 1
            ech.insert(row)
    overlap = []
    for p, row in ech.pivots.items():
        if p >= dim3:
            y = {c - dim3: v for c, v in row.items() if c < dim3 + n_left}
            z = {c - dim3 - n_left: -v for c, v in row.items() if c >= dim3 + n_left}
            overlap.append((y, z))
    return overlap


def bg_conditions(pair: InclusionPair):
    """The two conditions making gr of the filtered algebra equal qA:
    (1) the image of (phi (x) id - id (x) phi) on qR(x)g intersect g(x)qR
        lies back inside qR, and (2) composing with phi kills it.  Both are
    linear in the overlap vector, so checking them on a basis suffices."""
    qd = _quadratic_data(pair)
    if not qd.phi_consistent:
        return (False, False)
    dg = pair.g.dim
    phi_cols = qd.phi.transpose().data
    cond1 = True
    cond2 = True
    for y, z in _overlap(qd):
        diff: Vec = {}
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
            cond1 = False
            cond2 = False
            continue
        if qd.phi.apply(coords):
            cond2 = False
    return (cond1, cond2)


def qa_closed_form(pair: InclusionPair, k: int) -> int:
    """sum over i + j = k of dim_n^i * C(dim_h + j - 1, j)."""
    dn, dh = pair.dim_n, pair.dim_h
    return sum(dn ** i * sym_dim(dh, k - i) for i in range(k + 1))


def qa_graded_dimension(pair: InclusionPair, k: int) -> int:
    """dim of degree k of qA: the words of degree k minus the rank of the
    binomial relation span (words minus word classes), so the class count."""
    if k < 0:
        raise ValueError("negative degree")
    return _QaDegrees(pair, k).dim(k)


def _binomials(qd: QuadraticData) -> list:
    """The qR basis vectors e_u - e_v as letter pairs ((u1, u2), (v1, v2));
    the word classes hold only for such relations."""
    dg = qd.pair.g.dim
    out = []
    for vec in qd.basis:
        if len(vec) != 2 or sum(vec.values()):
            raise AssertionError(f"qR basis vector {vec} is not a binomial e_u - e_v")
        u, v = vec
        out.append((divmod(u, dg), divmod(v, dg)))
    return out


def _classes(n: int, joins) -> list:
    """The class of each of n elements once each pair of ``joins`` is
    joined (union-find), named by its largest element."""
    parent = list(range(n))

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = e = parent[parent[e]]
        return e

    for a, b in joins:
        a, b = find(a), find(b)
        if a != b:
            parent[min(a, b)] = max(a, b)
    return [find(e) for e in range(n)]


# ---------------------------------------------------------------------------
# Koszul complex slices
# ---------------------------------------------------------------------------


class _QaDegrees:
    """Quotient coordinates of qA per degree: canonical word representatives.

    The relations of degree d are R_d = R_{d-1} (x) g + g^{(x) d-2} (x) qR,
    so qA_d is a quotient of qA_{d-1} (x) g: its elements are the pairs
    (basis word p of qA_{d-1}, letter x), numbered p * dg + x, and the
    relations in the last position join (w1 u1, u2) with (w1 v1, v2) for
    each binomial e_u - e_v of qR.  The class of w1 u1 depends only on the
    class q of w1, so the joins are (times[d-2][q][u1], u2) ~
    (times[d-2][q][v1], v2) over the basis words q of qA_{d-2}.  The basis
    words below are sorted, so the largest element of a class is its
    largest word: ``basis_words[d]`` lists, in increasing order, the
    largest word of each class of g^{(x) d}.  ``times[d][p][x]`` is the
    product table of right multiplication qA_d x g -> qA_{d+1}: the
    coordinate of basis word p times letter x, whose coefficient is always 1."""

    def __init__(self, pair: InclusionPair, max_degree: int):
        dg = self.dg = pair.g.dim
        self.qd = _quadratic_data(pair)
        binomials = _binomials(self.qd)
        self.basis_words = [[0]]
        self.times = []
        for d in range(1, max_degree + 1):
            below = self.dim(d - 1)
            root = _classes(below * dg, self._last_relations(d, binomials) if d >= 2 else ())
            tops = [e for e in range(below * dg) if root[e] == e]
            pos = {e: i for i, e in enumerate(tops)}
            self.times.append([[pos[root[p * dg + x]] for x in range(dg)] for p in range(below)])
            self.basis_words.append([self.basis_words[d - 1][e // dg] * dg + e % dg for e in tops])

    def _last_relations(self, d: int, binomials) -> list:
        """The joins of the qR binomials in the last position of degree d."""
        dg = self.dg
        return [
            (row[u1] * dg + u2, row[v1] * dg + v2) for row in self.times[d - 2] for (u1, u2), (v1, v2) in binomials
        ]

    def dim(self, d: int) -> int:
        return len(self.basis_words[d])


def _in_relations_at(vec: dict, pair_class: list, dg: int, d: int, k: int) -> bool:
    """Whether vec in g^{(x) d} lies in g^{(x) k} (x) qR (x) g^{(x) d-2-k}.
    The classes of those relations are the words w1 c w2, c the class in
    qA_2 of the two letters at position k (``pair_class`` of a two-letter
    word); vec lies in the span iff its coefficients sum to zero on each."""
    lo = dg ** (d - 2 - k)
    sums: dict = {}
    for w, v in vec.items():
        w1, rest = divmod(w, dg * dg * lo)
        a, w2 = divmod(rest, lo)
        _add_term(sums, (w1, pair_class[a], w2), v)
    return not sums


def _wedge_vector(letters, dg: int) -> dict:
    """Total antisymmetrization of a letter list inside g^{(x) i}."""
    out: dict = {}
    for perm in itertools.permutations(range(len(letters))):
        idx = 0
        for p in perm:
            idx = idx * dg + letters[p]
        _add_term(out, idx, sort_with_sign(perm)[1])
    return out


@dataclass
class KTilde:
    """Basis of (wedge^{i-1} h) wedge g inside g^{(x) i}."""

    degree: int
    lists: list  # generating letter lists (h-subset..., g-letter)
    vectors: list  # their wedge vectors
    coords: Coordinates  # coordinates over ``vectors``
    expected_dim: int

    @property
    def dim(self) -> int:
        return len(self.lists)


def ktilde_basis(pair: InclusionPair, i: int) -> KTilde:
    dg, dn, dh = pair.g.dim, pair.dim_n, pair.dim_h
    if i == 0:
        return KTilde(0, [()], [{0: 1}], Coordinates([{0: 1}], 1), 1)
    span = Echelon(dg ** i)
    lists = []
    vectors = []
    for subset in itertools.combinations(range(dn, dg), i - 1):
        for x in range(dg):
            letters = subset + (x,)
            vec = _wedge_vector(letters, dg)
            if not vec:
                continue
            if span.insert(vec) is not None:
                lists.append(letters)
                vectors.append(vec)
    expected = math.comb(dh, i - 1) * dn + math.comb(dh, i)
    return KTilde(i, lists, vectors, Coordinates(vectors, dg ** i), expected)


@dataclass
class KoszulComplexSlice:
    internal_degree: int
    dims: list  # dim of qA_{d-i} (x) K^i per position i
    dd_zero: bool
    exact: dict  # position -> bool, for 1 <= i <= top
    rightmost_homology: int  # dim H at position 0, reported not required

    @property
    def ok(self) -> bool:
        return self.dd_zero and all(self.exact.values())


@dataclass
class KoszulReport:
    ktilde_dims_ok: bool
    containment_ok: bool
    slices: list
    qa_dims: list  # dim qA_d for d <= the cap: words minus the binomial span's rank (words - classes)

    @property
    def ok(self) -> bool:
        return self.ktilde_dims_ok and self.containment_ok and all(s.ok for s in self.slices)


def koszul_acyclicity(pair: InclusionPair, max_internal_degree: int) -> KoszulReport:
    """Build the slices ... -> qA_{d-2} (x) K^2 -> qA_{d-1} (x) K^1 -> qA_d -> 0
    for d <= the cap, check the differentials square to zero and the slice is
    exact at every position left of the rightmost; the homology at the
    rightmost position is reported."""
    if max_internal_degree < 1:
        raise ValueError("need at least internal degree 1")
    dg = pair.g.dim
    qa = _QaDegrees(pair, max_internal_degree)
    max_i = min(max_internal_degree, pair.dim_h + 1)
    kt = [ktilde_basis(pair, i) for i in range(max_i + 1)]
    ktilde_dims_ok = all(kt[i].dim == kt[i].expected_dim for i in range(max_i + 1))

    # the qA_2 coordinate of each two-letter word: the classes of qR
    pair_class = [c for row in qa.times[1] for c in row] if max_i >= 2 else []
    containment_ok = all(
        _in_relations_at(vec, pair_class, dg, i, k)
        for i in range(2, max_i + 1)
        for k in range(i - 1)
        for vec in kt[i].vectors
    )

    # cache of the wedge coordinates appearing in the differentials: per
    # position i, the signed coordinates (-1)^j * (the wedge with its j-th
    # letter omitted) over the lower K-tilde basis, for each list of K^i
    omitted = [None]
    for i in range(1, max_i + 1):
        per_list = []
        for letters in kt[i].lists:
            per_j = []
            for j in range(len(letters)):
                coords = kt[i - 1].coords(_wedge_vector(letters[:j] + letters[j + 1:], dg))
                if coords is None:
                    raise AssertionError("omitted wedge escaped the lower subspace")
                sign = -1 if j % 2 else 1
                per_j.append({tp: sign * ct for tp, ct in _integral(coords).items()})
            per_list.append(per_j)
        omitted.append(per_list)

    slices = []
    for d in range(1, max_internal_degree + 1):
        top = min(d, max_i)
        dims = [qa.dim(d - i) * kt[i].dim for i in range(top + 1)]
        # d_i as int columns: column p * dim K^i + t holds, for each letter
        # of list t, the omitted wedge's coordinates at (p times the letter)
        cols = [None]
        for i in range(1, top + 1):
            lower = kt[i - 1].dim
            cols_i = []
            for products in qa.times[d - i]:
                for letters, wedges in zip(kt[i].lists, omitted[i]):
                    col: dict = {}
                    for letter, wedge in zip(letters, wedges):
                        base = products[letter] * lower
                        for tp, ct in wedge.items():
                            _add_term(col, base + tp, ct)
                    cols_i.append(col)
            cols.append(cols_i)
        dd_zero = all(not any(_int_mul(cols[i], cols[i - 1])) for i in range(2, top + 1))
        ranks = []
        for i in range(1, top + 1):
            span = Echelon(dims[i - 1])
            for col in cols[i]:
                span.insert(col)
            ranks.append(span.rank)
        exact = {}
        for i in range(1, top + 1):
            rank_out = ranks[i - 1]
            rank_in = ranks[i] if i < top else 0
            exact[i] = dims[i] - rank_out == rank_in
        rightmost = dims[0] - ranks[0] if ranks else dims[0]
        slices.append(KoszulComplexSlice(d, dims, dd_zero, exact, rightmost))
    qa_dims = [qa.dim(d) for d in range(max_internal_degree + 1)]
    return KoszulReport(ktilde_dims_ok, containment_ok, slices, qa_dims)
