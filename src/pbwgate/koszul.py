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
relations join, and dim qA_k is the number of those classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .lie import InclusionPair, sort_with_sign, sym_dim
from .linalg import Coordinates, Echelon, Matrix, _add_term, _int_mul, _integral, subspace_intersection

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


def bg_conditions(pair: InclusionPair):
    """The two conditions making gr of the filtered algebra equal qA:
    (1) the image of (phi (x) id - id (x) phi) on qR(x)g intersect g(x)qR
        lies back inside qR, and (2) composing with phi kills it."""
    qd = _quadratic_data(pair)
    if not qd.phi_consistent:
        return (False, False)
    dg = pair.g.dim
    dim3 = dg ** 3
    # qR (x) g at b * dg + w, and g (x) qR at u * dim(qR) + b
    left_vectors = [{c * dg + w: v for c, v in vec.items()} for vec in qd.basis for w in range(dg)]
    right_vectors = [{u * dg * dg + c: v for c, v in vec.items()} for u in range(dg) for vec in qd.basis]
    left = Coordinates(left_vectors, dim3)
    right = Coordinates(right_vectors, dim3)
    phi_cols = qd.phi.transpose().data
    cond1 = True
    cond2 = True
    for d in subspace_intersection(left_vectors, right_vectors, dim3):
        y = left(d)
        z = right(d)
        if y is None or z is None:
            raise AssertionError("overlap vector lies outside qR (x) g or g (x) qR")
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


def _word_classes(qd: QuadraticData, d: int, positions, rep: Optional[list] = None) -> list:
    """rep[w] for each word w of g^{(x) d}: the largest word of w's class
    when w1 u w2 ~ w1 v w2 for each qR basis vector e_u - e_v, placed at
    each of ``positions`` (the degree of w1), starting from the classes of
    ``rep`` (one word each by default).  The relation span is the span of
    the e_w - e_{rep[w]}: rank #words - #classes, its free columns (leftmost
    pivoting) the words w = rep[w], and each word reduces to e_{rep[w]}."""
    dg = qd.pair.g.dim
    parent = list(range(dg ** d)) if rep is None else list(rep)

    def find(w: int) -> int:
        while parent[w] != w:
            parent[w] = w = parent[parent[w]]
        return w

    binomials = []
    for vec in qd.basis:
        if len(vec) != 2 or sum(vec.values()):
            raise AssertionError(f"qR basis vector {vec} is not a binomial e_u - e_v")
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


def _in_class_span(rep: list, vec: dict) -> bool:
    """Whether vec lies in the span of the e_w - e_{rep[w]}: its coefficients
    sum to zero on every class."""
    sums: dict = {}
    for w, v in vec.items():
        _add_term(sums, rep[w], v)
    return not sums


# ---------------------------------------------------------------------------
# Koszul complex slices
# ---------------------------------------------------------------------------


class _QaDegrees:
    """Quotient coordinates of qA per degree: canonical word representatives.

    The classes of degree d are those of R_{d-1} (x) g + g^{(x) d-2} (x) qR:
    the classes one degree below, extended by a last letter, joined by the
    relations in the last position.  The classes of a binomial span do not
    depend on the order the relations come in, so these are the classes of
    the relations at every position.  ``times[d][p][x]`` is the product
    table of right multiplication qA_d x g -> qA_{d+1}: the coordinate of
    basis word p times letter x, whose coefficient is always 1."""

    def __init__(self, pair: InclusionPair, max_degree: int):
        dg = pair.g.dim
        self.qd = _quadratic_data(pair)
        self.reps = []
        self.basis_words = []
        self.times = []
        rep = [0]
        for d in range(max_degree + 1):
            if d:
                rep = [r * dg + x for r in rep for x in range(dg)]
            if d >= 2:
                rep = _word_classes(self.qd, d, (d - 2,), rep)
            words = [w for w, r in enumerate(rep) if w == r]
            if d:
                pos = {w: i for i, w in enumerate(words)}
                self.times.append([[pos[rep[w * dg + x]] for x in range(dg)] for w in self.basis_words[-1]])
            self.reps.append(rep)
            self.basis_words.append(words)

    def dim(self, d: int) -> int:
        return len(self.basis_words[d])


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

    containment_ok = True
    for i in range(2, max_i + 1):
        for k in range(i - 1):
            rep = _word_classes(qa.qd, i, (k,))
            containment_ok = containment_ok and all(_in_class_span(rep, vec) for vec in kt[i].vectors)

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
