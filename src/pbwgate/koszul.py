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
last), which makes every relation vector a binomial e_u - e_v, and the
quadratic side needs no elimination.  The qR basis is a list of letter
pairs; phi is read from a potential on the two-letter words; the overlap
qR (x) g intersect g (x) qR of the straightening conditions is K^3 (A.
Polishchuk and L. Positselski, Quadratic Algebras, 2005), and K^i has one
list per letter set.  The relation span of degree k is a binomial span,
its rank counted as the words of degree k minus the classes of words the
relations join, and dim qA_k is the number of those classes.  The classes
of degree k are built from the basis words of degree k - 1 times a letter,
so no check visits every word of g^{(x) k}.  The slice differentials d_1
and d_2 are not eliminated either: the rank of d_1 is the number of
distinct products, and the columns of d_2 are the joins that build qA_d, so
its rank is dim qA_{d-1} * dim g - dim qA_d; only d_i for i >= 3 goes to an
echelon.
"""

from __future__ import annotations

import itertools
import math

from .lie import InclusionPair, _letter_ints, sort_with_sign, sym_dim
from .linalg import Echelon, Q, _add_term, _products_cancel
from .record import Record


def quadratic_data(pair: InclusionPair) -> list:
    """The qR basis as letter pairs (a, x): a an h-letter, x an n-letter or a
    later h-letter, for the binomial a (x) x - x (x) a.  The spanning vectors
    left out are zero (x = a) or the negative of a kept one (x an earlier
    h-letter), and the kept binomials have disjoint supports."""
    dn, dg = pair.dim_n, pair.g.dim
    return [(a, x) for a in range(dn, dg) for x in range(dg) if x < dn or x > a]


def _quadratic_data(pair: InclusionPair) -> list:
    """``quadratic_data(pair)``, built once per pair."""
    cache = pair._caches
    if "quadratic_data" not in cache:
        cache["quadratic_data"] = quadratic_data(pair)
    return cache["quadratic_data"]


def _potential(pair: InclusionPair) -> list:
    """phi read on each two-letter word u * dg + v: [a, x] on the basis
    orientation a (x) x of a qR binomial, 0 on every other word.  On qR this
    is phi, since a basis binomial meets one basis orientation, with sign +."""
    (ints, D), dg = _letter_ints(pair), pair.g.dim
    out = [{} for _ in range(dg * dg)]
    for a, x in _quadratic_data(pair):
        out[a * dg + x] = {k: Q(c, D) for k, c in ints[a][x].items()}
    return out


def _phi_at(potential: list, vec: dict, dg: int, d: int, k: int) -> dict:
    """The potential applied to the two letters at position k of vec in
    g^{(x) d}: (id^{(x) k} (x) phi (x) id^{(x) d-2-k})(vec) in g^{(x) d-1}."""
    lo = dg ** (d - 2 - k)
    out: dict = {}
    for w, v in vec.items():
        w1, rest = divmod(w, dg * dg * lo)
        c, w2 = divmod(rest, lo)
        for x, b in potential[c].items():
            _add_term(out, (w1 * dg + x) * lo + w2, v * b)
    return out


def bg_conditions(pair: InclusionPair):
    """The two conditions making gr of the filtered algebra equal qA:
    (1) the image of (phi (x) id - id (x) phi) on qR(x)g intersect g(x)qR
        lies back inside qR, and (2) composing with phi kills it.  Both are
    linear in the overlap vector, so checking them on a basis suffices.

    A word of g^{(x) 3} lies in at most one binomial of qR (x) g and in at
    most one of g (x) qR, so an overlap vector is antisymmetric in every
    pair of its letters, each pair holding an h-letter: the overlap is K^3,
    spanned by the wedges of three distinct letters, at least two of them
    h-letters."""
    dg = pair.g.dim
    potential = _potential(pair)
    pair_class = [c for row in _QaDegrees(pair, 2).times[1] for c in row]
    cond1 = cond2 = True
    for vec in ktilde_basis(pair, 3).vectors:
        diff = _phi_at(potential, vec, dg, 3, 0)
        for w, v in _phi_at(potential, vec, dg, 3, 1).items():
            _add_term(diff, w, -v)
        if not _in_relations_at(diff, pair_class, dg, 2, 0):
            cond1 = cond2 = False
        elif _phi_at(potential, diff, dg, 2, 0):
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
        binomials = [((a, x), (x, a)) for a, x in _quadratic_data(pair)]
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


class KTilde(Record):
    """Basis of (wedge^{i-1} h) wedge g inside g^{(x) i}."""

    degree: int
    lists: list  # generating letter lists (h-subset..., g-letter)
    vectors: list  # their wedge vectors
    index: dict  # sorted letters of each list -> (its position, the sign of sorting it)
    expected_dim: int

    @property
    def dim(self) -> int:
        return len(self.lists)


def ktilde_basis(pair: InclusionPair, i: int) -> KTilde:
    """One list per letter set: the wedges of distinct letters are
    independent across letter sets and +- each other within one."""
    dg, dn, dh = pair.g.dim, pair.dim_n, pair.dim_h
    if i == 0:
        return KTilde(0, [()], [{0: 1}], {(): (0, 1)}, 1)
    lists = []
    index = {}
    for subset in itertools.combinations(range(dn, dg), i - 1):
        for x in range(dg):
            ordered = sort_with_sign(subset + (x,))
            if ordered is not None and ordered[0] not in index:
                index[ordered[0]] = (len(lists), ordered[1])
                lists.append(subset + (x,))
    expected = math.comb(dh, i - 1) * dn + math.comb(dh, i)
    return KTilde(i, lists, [_wedge_vector(letters, dg) for letters in lists], index, expected)


class KoszulComplexSlice(Record):
    internal_degree: int
    dims: list  # dim of qA_{d-i} (x) K^i per position i
    dd_zero: bool
    exact: dict  # position -> bool, for 1 <= i <= top
    rightmost_homology: int  # dim H at position 0, reported not required

    @property
    def ok(self) -> bool:
        return self.dd_zero and all(self.exact.values())


class KoszulReport(Record):
    ktilde_dims_ok: bool
    containment_ok: bool  # each K^i inside the relations, each d_2 template its K^2 wedge
    slices: list
    qa_dims: list  # dim qA_d for d <= the cap: words minus the binomial span's rank (words - classes)

    @property
    def ok(self) -> bool:
        return self.ktilde_dims_ok and self.containment_ok and all(s.ok for s in self.slices)


def _omission_templates(kt: KTilde, lower: KTilde) -> list:
    """Per list of K^i, one (letter, lower coordinate, sign) per omitted
    letter: (-1)^j times the wedge of the list with its j-th letter omitted
    is sign times the basis wedge of K^{i-1} with the same letters, read from
    ``lower.index`` and the signs of sorting both letter lists; the column of
    d_i at (p, list) holds sign at (p times the letter, that coordinate).
    The lower coordinates of one list differ, because different letters
    omitted leave different letter sets."""
    out = []
    for letters in kt.lists:
        template = []
        for j, letter in enumerate(letters):
            key, sign = sort_with_sign(letters[:j] + letters[j + 1:])
            if key not in lower.index:
                raise AssertionError(f"omitting letter {j} of {letters} leaves no lower basis wedge")
            t, lower_sign = lower.index[key]
            template.append((letter, t, -sign * lower_sign if j % 2 else sign * lower_sign))
        out.append(template)
    return out


def koszul_acyclicity(pair: InclusionPair, max_internal_degree: int) -> KoszulReport:
    """Build the slices ... -> qA_{d-2} (x) K^2 -> qA_{d-1} (x) K^1 -> qA_d -> 0
    for d <= the cap, check the differentials square to zero and the slice is
    exact at every position left of the rightmost; the homology at the
    rightmost position is reported.

    K^1 is g with its letters in order, so d_1 is the product table: column
    p * dg + x is the unit vector at times[d-1][p][x], and its rank is the
    number of distinct products.  Each column of d_2 is a binomial
    e_(p a, x) - e_(p x, a), so d_1 o d_2 = 0 says that both its entries have
    the same product.  Those columns are the joins that built qA_d once
    K^2 = qR (the containment and the K^i dimensions), so the rank of d_2 is
    dims[1] - dim qA_d; the containment also compares each d_2 template with
    its K^2 wedge.  Only d_i for i >= 3 is eliminated."""
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

    templates = {i: _omission_templates(kt[i], kt[i - 1]) for i in range(2, max_i + 1)}
    if max_i >= 2:
        # each d_2 template, read in g (x) g (K^1 is g letter by letter), is its K^2 wedge
        containment_ok = containment_ok and all(
            {letter * dg + t: sign for letter, t, sign in template} == vec
            for template, vec in zip(templates[2], kt[2].vectors)
        )
    slices = []
    for d in range(1, max_internal_degree + 1):
        top = min(d, max_i)
        dims = [qa.dim(d - i) * kt[i].dim for i in range(top + 1)]
        products = [c for row in qa.times[d - 1] for c in row]
        ranks = [len(set(products))]
        dd_zero = True
        cols = None
        for i in range(2, top + 1):
            lower = kt[i - 1].dim
            below, cols = cols, [
                {row[letter] * lower + t: sign for letter, t, sign in template}
                for row in qa.times[d - i]
                for template in templates[i]
            ]
            if i == 2:
                ranks.append(dims[1] - qa.dim(d))
                # each column is e_u - e_v, which d_1 sends to e_products[u] - e_products[v]
                dd_zero = all(products[u] == products[v] for u, v in cols)
            else:
                dd_zero = dd_zero and _products_cancel(len(cols), [(1, cols, below)])
                span = Echelon(dims[i - 1])
                for col in cols:
                    span.insert(col)
                ranks.append(span.rank)
        exact = {i: dims[i] - ranks[i - 1] == (ranks[i] if i < top else 0) for i in range(1, top + 1)}
        slices.append(KoszulComplexSlice(d, dims, dd_zero, exact, dims[0] - ranks[0]))
    qa_dims = [qa.dim(d) for d in range(max_internal_degree + 1)]
    return KoszulReport(ktilde_dims_ok, containment_ok, slices, qa_dims)
