"""Truncated normal-form models of the two quotient modules and their
filtrations, the explicit splitting maps, and the brute-force section oracle.

Two rewriting rules over the adapted letters (n-letters 0..dim_n-1, then
h-letters), run by one memoised routine, produce the normal forms:

* free side (``F``): only h-letters commute across other letters, via
  a x -> x a + [i(a), x]; surviving words are free words in the n-letters,
  and a trailing block of h-letters is the part that acts on the coefficient
  module (it annihilates the trivial module).
* straightened side (``R``): every out-of-order adjacent pair is swapped,
  x y -> y x + [x, y]; surviving monomials are weakly increasing words in the
  n-letters, again with an h-tail acting on the coefficients.

Filtration levels are spanned by the normal forms of bounded degree; the
h-action is built one degree at a time by the derivation rule
a.(x w) = x.(a.w) + [a, x].w (``FilteredModule``).  Both gradings, the
dimension identities, and every splitting claim are re-checked against the
independent section oracle, which knows nothing about cocycles or t-maps;
its verdicts are asked for through ``oracle_splits``, which decides each
level address once per pair (``_level_address``, under which levels equal
entry for entry share an address) and builds a level sequence only for an
address not yet decided.  The oracle puts three candidate sections through
one exact check: the zero block, one built from an h-stable complement (itself
the oracle's solve of 0 -> h -> g -> n -> 0), and the section system's solution.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Sequence

from .cohomology import ExtensionDatum, extension, is_trivial, pushout_data
from .koszul import quadratic_data
from .lie import (
    InclusionPair,
    LieModule,
    ModuleMap,
    _letter_ints,
    quotient_module,
    sym_dim,
    sym_monomials,
    sym_power_module,
    tensor_module,
    trivial_module,
)
from .linalg import Echelon, Matrix, Q, _add_term, _columns, _common_scale, _int_mul, _int_rows, solve
from .record import Record


class AlphaNontrivialError(RuntimeError):
    """A splitting was requested but the obstruction class does not vanish."""


class RewritingInconsistencyError(RuntimeError):
    """Normal forms failed an independent cross-check; aborting instead of
    returning unsound data."""


Word = tuple  # tuple of adapted letter indices


# ---------------------------------------------------------------------------
# word rewriting
# ---------------------------------------------------------------------------


# the pair-cache key of each side's rewriting memo; perfbench reads these keys
_MEMO = {"F": "free_words", "R": "pbw_words"}


def _int_normal_form(pair: InclusionPair, side: str, word: Word) -> dict:
    """Normal form of a g-word on one side, as ints over the scale
    D^len(word): a combination of (n-word, h-tail) pairs, the h-tail being
    the trailing block of h-letters, each coefficient times D^len(word).

    One rewriting step swaps an out-of-order adjacent pair x y into
    y x + [x, y].  On the free side (``F``) that pair is the rightmost
    h-letter left of the h-tail and its right neighbour; on the straightened
    side (``R``) it is the leftmost descent.  A word with no such pair is a
    normal form: a free n-word (resp. a weakly increasing one) and its h-tail.
    The swapped word shares the scale D^len(word); a bracket term's shorter
    word sits at D^(len(word)-1) and its integer numerator brings one more D.
    The memo holds these ints for the words asked for, the words (x,) + u
    on ``R`` and f2_class_check's on ``F``, and for the words their
    rewriting passes through; callers must not mutate them.
    """
    cache = pair._caches.setdefault(_MEMO[side], {})
    if word in cache:
        return cache[word]
    ints, scale = _letter_ints(pair)
    dn = pair.dim_n
    s = len(word)
    while s > 0 and word[s - 1] >= dn:
        s -= 1
    if side == "F":
        i = next((k for k in range(s - 1, -1, -1) if word[k] >= dn), None)
    else:
        i = next((k for k in range(len(word) - 1) if word[k] > word[k + 1]), None)
    if i is None:
        out = {(word[:s], word[s:]): scale ** len(word)}
    else:
        out = dict(_int_normal_form(pair, side, word[:i] + (word[i + 1], word[i]) + word[i + 2:]))
        for letter, coeff in ints[word[i]][word[i + 1]].items():
            shorter = word[:i] + (letter,) + word[i + 2:]
            for key, c in _int_normal_form(pair, side, shorter).items():
                w = out.get(key, 0) + coeff * c
                if w:
                    out[key] = w
                else:
                    del out[key]
    cache[word] = out
    return out


def _normal_form(pair: InclusionPair, side: str, word: Word) -> dict:
    """``_int_normal_form`` with its coefficients as exact rationals."""
    scale = _letter_ints(pair)[1] ** len(word)
    return {key: Q(c, scale) for key, c in _int_normal_form(pair, side, word).items()}


def _straightened(pair: InclusionPair, word: Word) -> dict:
    """Straightened normal form of a g-word as ints over D^len(word): weakly
    increasing n-monomials, a term with an h-tail lying in U(g)h and dying."""
    return {nword: c for (nword, htail), c in _int_normal_form(pair, "R", word).items() if not htail}


# ---------------------------------------------------------------------------
# Hopf structure on words (generators primitive)
# ---------------------------------------------------------------------------


def coproduct_word(word: Word) -> dict:
    """All order-preserving splittings of the word, with int multiplicities:
    Delta is multiplicative with every letter primitive."""
    word = tuple(word)
    m = len(word)
    out: dict = {}
    for mask in range(1 << m):
        left = tuple(word[i] for i in range(m) if mask & (1 << i))
        right = tuple(word[i] for i in range(m) if not mask & (1 << i))
        _add_term(out, (left, right), 1)
    return out


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


def _compose_h_tail(coeff: LieModule, htail: Word, dn: int) -> list:
    """Action of an h-letter tail on the coefficient module (leftmost letter
    outermost), as int rows over coeff.scale^len(htail)."""
    out = [{i: 1} for i in range(coeff.dim)]
    for letter in reversed(htail):
        out = _int_mul(coeff.mats[letter - dn], out)
    return out


def _quotient_power(pair: InclusionPair, k: int) -> LieModule:
    """The h-module n^{(x)k}, each power built once per pair from the one below."""
    powers = pair._caches.setdefault("quotient_powers", [trivial_module(pair.h), quotient_module(pair)])
    while len(powers) <= k:
        powers.append(tensor_module(powers[-1], powers[1]))
    return powers[k]


def _quotient_sym_power(pair: InclusionPair, k: int) -> LieModule:
    """The h-module S^k(n), built once per pair and degree."""
    powers = pair._caches.setdefault("quotient_sym_powers", {})
    if k not in powers:
        powers[k] = sym_power_module(quotient_module(pair), k)
    return powers[k]


class FilteredModule:
    """Levels F^0 c F^1 c ... (or R^.) with their h-actions.

    The basis at level k consists of the normal-form words of degree <= k
    paired with a coefficient-module basis vector; the degree-(k-1) basis is
    a prefix, so inclusions are coordinate injections.  Every level is a
    slice of ``module``, the top level K.  The actions come from the
    derivation rule a.(x w (x) v) = x.(a.(w (x) v)) + [a, x].(w (x) v) for an
    h-letter a and a basis word x w, one degree at a time from
    a.(() (x) v) = () (x) a.v; trivial coefficients are the one-dimensional
    zero module.  The rule's two tables are kept for the life of the
    filtration: the left products x.(w (x) v), memoised by ``left_product``,
    and the h-letters' action columns, ``_columns``.  ``y_section`` reads both
    to build each level's section from an h-stable complement, for the
    section oracle to check, and computes no left product or action again.
    """

    def __init__(self, pair: InclusionPair, side: str, K: int, coeff: LieModule | None = None):
        if side not in ("F", "R"):
            raise ValueError("side must be 'F' or 'R'")
        self.pair = pair
        self.side = side
        self.K = K
        self.trivial_coeff = coeff is None
        self.coeff = coeff if coeff is not None else trivial_module(pair.h)
        dn = pair.dim_n
        vdim = self.coeff.dim
        words = []
        self._word_offsets = [0]
        for k in range(K + 1):
            if side == "F":
                layer = list(itertools.product(range(dn), repeat=k))
            else:
                layer = sym_monomials(dn, k)
            words.extend(layer)
            self._word_offsets.append(len(words))
        self.words = words
        self.word_index = {w: i for i, w in enumerate(words)}
        self.vdim = vdim
        scale = (_letter_ints(pair)[1] * self.coeff.scale) ** (K + 1)
        self._tails: dict = {}  # h-tail -> its action on the coefficients times T^len(h-tail), as int rows
        self._degrees = [len(w) for w in words for _ in range(vdim)]
        self._left: list = [[None] * len(words) for _ in range(dn)]  # [x][pos]: ``left_product(x, pos)``
        self._columns = self._derived_columns()
        mats = [self._action_matrix(a) for a in range(pair.dim_h)]
        self.module = LieModule.from_ints(pair.h, len(words) * vdim, mats, scale)
        self._y_products: dict = {}  # word -> ``_y_product(word)``
        self._y_columns: list = [{} for _ in range(dn)]  # [x][c]: ``_y_column(x, c)``
        self._verify()

    # -- construction helpers ------------------------------------------------

    def left_product(self, x: int, pos: int) -> list:
        """x.(words[pos] (x) e_j) for each j, x an n-letter, as int columns: a row of word degree q
        over (D * T)^(len(words[pos]) + 1 - q), D the letter scale and T the coefficient module's.
        It concatenates on ``F``; on ``R`` it is the memo's (x,) + words[pos] over
        D^(len(words[pos]) + 1), its h-tail acting on e_j, whose ints in a row of degree q are
        multiples of D^q since each bracket removes a letter.  Computed once per filtration and
        (x, pos), and kept: the derivation rule and the y-sections read the one table."""
        out = self._left[x][pos]
        if out is not None:
            return out
        pair, dn, vdim, T = self.pair, self.pair.dim_n, self.vdim, self.coeff.scale
        D = _letter_ints(pair)[1]
        word = (x,) + self.words[pos]
        terms = {(word, ()): D ** len(word)} if self.side == "F" else _int_normal_form(pair, "R", word)
        out: list = [{} for _ in range(vdim)]
        for (nw, htail), c in terms.items():
            if nw not in self.word_index:
                raise RewritingInconsistencyError(f"normal form {nw} escaped the degree-{self.K} basis")
            tail = self._tails.get(htail)
            if tail is None:
                tail = self._tails[htail] = _compose_h_tail(self.coeff, htail, dn)
            base, z = self.word_index[nw] * vdim, c // D ** len(nw) * T ** (len(word) - len(nw) - len(htail))
            for i, row in enumerate(tail):
                for j, t in row.items():
                    out[j][base + i] = out[j].get(base + i, 0) + z * t
        self._left[x][pos] = out
        return out

    def _derived_columns(self) -> list:
        """cols[a][c]: the column of a.(word (x) e_v), c = (word position) * vdim + v.  In ints,
        a column of word degree m holds a row of word degree q over (D * T)^(m + 1 - q), D the
        letter scale and T the coefficient module's: a left product (``left_product``) keeps that
        scale, and the bracket's 1/D brings one T.  The table is kept as ``_columns``, for
        ``_action_matrix`` and for the y-sections' h-actions (``_y_column``)."""
        pair, dn = self.pair, self.pair.dim_n
        vdim, T, mats = self.vdim, self.coeff.scale, self.coeff.mats
        ints, D = _letter_ints(pair)
        left_product = self.left_product
        # degree 0: a.(() (x) e_v) = () (x) a.e_v, over D * T
        cols = [[{i: D * row[v] for i, row in enumerate(mats[a]) if v in row} for v in range(vdim)] for a in range(pair.dim_h)]
        for w in self.words[1:]:
            x, pos = w[0], self.word_index[w[1:]]
            for v in range(vdim):
                below = pos * vdim + v
                for a, acts in enumerate(cols):
                    col: dict = {}  # x.(a.(w[1:] (x) e_v)), then [a, x].(w[1:] (x) e_v)
                    for r, y in acts[below].items():
                        for r2, z in left_product(x, r // vdim)[r % vdim].items():
                            col[r2] = col.get(r2, 0) + y * z
                    for letter, c in ints[dn + a][x].items():
                        src = left_product(letter, pos)[v] if letter < dn else cols[letter - dn][below]
                        for r2, z in src.items():
                            col[r2] = col.get(r2, 0) + c * T * z
                    acts.append({r: z for r, z in col.items() if z})
        return cols

    def _action_matrix(self, a: int) -> list:
        """The action of h-letter a as int rows over (D * T)^(K + 1), D the letter scale and T
        the coefficient module's, read from the kept columns of ``_derived_columns``."""
        K, dt = self.K, _letter_ints(self.pair)[1] * self.coeff.scale
        lifts = [dt ** e for e in range(K + 1)]
        degree = self._degrees
        rows: list = [{} for _ in degree]
        for c, col in enumerate(self._columns[a]):
            for r, g in col.items():
                rows[r][c] = g * lifts[K - degree[c] + degree[r]]
        return rows

    def _verify(self) -> None:
        # bracket compatibility doubles as an empirical confluence check
        bad = self.module.compatibility_defects()
        if bad:
            raise RewritingInconsistencyError(
                f"level actions violate bracket compatibility at h-basis pairs {bad}"
            )
        if self.trivial_coeff:
            # the constant word spans row 0 and column 0; nothing enters or leaves it
            for rows in self.module.mats:
                if any(row and (i == 0 or 0 in row) for i, row in enumerate(rows)):
                    raise RewritingInconsistencyError("constant line is not a direct summand")

    # -- level access ---------------------------------------------------------

    def dim(self, k: int) -> int:
        return self._word_offsets[k + 1] * self.vdim

    def _slice(self, lo: int, hi: int) -> LieModule:
        """The h-action on the basis vectors lo..hi-1."""
        mats = [[{c - lo: v for c, v in row.items() if lo <= c < hi} for row in m[lo:hi]] for m in self.module.mats]
        return LieModule.from_ints(self.pair.h, hi - lo, mats, self.module.scale)

    def level_module(self, k: int) -> LieModule:
        return self._slice(0, self.dim(k))

    def reduced_module(self, k: int) -> LieModule:
        if not self.trivial_coeff:
            raise ValueError("reduced filtration only applies to trivial coefficients")
        return self._slice(1, self.dim(k))

    def gr_target(self, k: int) -> LieModule:
        power = (_quotient_power if self.side == "F" else _quotient_sym_power)(self.pair, k)
        if self.trivial_coeff:
            return power
        return tensor_module(power, self.coeff)

    # -- sections from an h-stable complement ----------------------------------

    def y_section(self, k: int, reduced: bool = False) -> tuple | None:
        """A candidate section of ``level_sequence(self, k, reduced)`` from the pair's h-stable
        complement y_r = x_r + sum_b t[b][r] h_b (``h_stable_complement``), or None when the pair
        has none: (int rows of the middle level, scale), column j the image of the j-th basis
        vector of gr_k.  On ``F`` a degree-k word w (x) e_v goes to y_w . (() (x) e_v); on ``R`` a
        monomial goes to the mean of y_w . (() (x) e_v) over its distinct orderings w, the PBW
        symmetrisation.  Both maps are equivariant when the y_r span an h-stable subspace, and
        the degree-k part of y_w . (() (x) e_v) is w (x) e_v.  Nothing is checked here:
        ``section_oracle`` keeps the candidate only when its exact check accepts it.  A row of
        word degree q of y_w . (() (x) e_v) is held over rho^(k - q), rho = D * T * Dt (``_y_product``),
        so the rows here are over rho^k, times k! on ``R`` for the mean."""
        complement = h_stable_complement(self.pair)
        if complement is None:
            return None
        vdim, deg = self.vdim, self._degrees
        lo, hi = self._word_offsets[k], self._word_offsets[k + 1]
        if self.side == "F":
            weight, orderings = 1, [(w,) for w in self.words[lo:hi]]
        else:
            weight, orderings = math.factorial(k), [_distinct_permutations(w) for w in self.words[lo:hi]]
        rho = _letter_ints(self.pair)[1] * self.coeff.scale * complement[1]
        lifts = [rho ** q for q in range(k + 1)]
        rows: list = [{} for _ in range(self.dim(k))]
        for i, words in enumerate(orderings):
            f = weight // len(words)
            for w in words:
                for v, vec in enumerate(self._y_product(w)):
                    col = i * vdim + v
                    for r, z in vec.items():
                        rows[r][col] = rows[r].get(col, 0) + f * z * lifts[deg[r]]
        rows = [{c: z for c, z in row.items() if z} for row in rows[1 if reduced else 0:]]
        return rows, weight * rho ** k

    def _y_product(self, word: Word) -> list:
        """y_word . (() (x) e_v) for each v, as int columns: a row of word degree q over
        rho^(len(word) - q); y_((r,) + u) = y_r . y_u, memoised by word."""
        memo = self._y_products
        out = memo.get(word)
        if out is None:
            if not word:
                out = [{v: 1} for v in range(self.vdim)]
            else:
                op, out = self._y_columns[word[0]], []
                for vec in self._y_product(word[1:]):
                    acc: dict = {}
                    for c, y in vec.items():
                        col = op.get(c)
                        if col is None:
                            col = op[c] = self._y_column(word[0], c)
                        for r, z in col.items():
                            acc[r] = acc.get(r, 0) + y * z
                    out.append(acc)
            memo[word] = out
        return out

    def _y_column(self, x: int, c: int) -> dict:
        """y_x . (basis vector c) = x . c + sum_b t[b][x] h_b . c, a row of word degree q over
        rho^(m + 1 - q), m the degree of c: the left product is over (D * T)^(m + 1 - q) and the
        action (the kept ``_columns``) over the same times Dt, the denominator of t."""
        (tn, dt), deg = h_stable_complement(self.pair), self._degrees
        pos, j = divmod(c, self.vdim)
        m = deg[c]
        lifts = [dt ** e for e in range(m + 2)]
        col = {r: z * lifts[m + 1 - deg[r]] for r, z in self.left_product(x, pos)[j].items()}
        for t, act in zip(tn, self._columns):
            if t[x]:
                for r, g in act[c].items():
                    col[r] = col.get(r, 0) + t[x] * g * lifts[m - deg[r]]
        return col


def _distinct_permutations(mono: Word) -> list:
    """The distinct orderings of a monomial's letters, whose mean symmetrises it."""
    return list(dict.fromkeys(itertools.permutations(mono)))


def h_stable_complement(pair: InclusionPair) -> tuple | None:
    """(t, Dt) such that the y_r = x_r + sum_b (t[b][r] / Dt) h_b span an h-stable complement
    of h in g, or None when there is none; solved once per pair.

    The y_r span one exactly when [t; 1] is an equivariant section of 0 -> h -> g -> n -> 0, g
    the h-module by the bracket with letter l at position (l - dim n) mod dim g (h-letters first)
    and n ``quotient_module(pair)``: the sequence is validated (a wrong block raises ValueError)
    and t is the free-variables-zero solution of its ``_section_rows``, the oracle's system.
    """
    cache = pair._caches
    if "h_stable_complement" not in cache:
        (ints, D), dn, dh, dg = _letter_ints(pair), pair.dim_n, pair.dim_h, pair.g.dim
        mats = [[{} for _ in range(dg)] for _ in range(dh)]
        for a, rows in enumerate(mats):
            # column p is [h_a, letter (p + dim n) mod dim g]
            for p in range(dg):
                for l, v in ints[dn + a][(p + dn) % dg].items():
                    rows[(l - dn) % dg][p] = v
        sub = [[{c: v for c, v in row.items() if c < dh} for row in rows[:dh]] for rows in mats]
        seq = ShortExactSequence(
            LieModule.from_ints(pair.h, dh, sub, D), LieModule.from_ints(pair.h, dg, mats, D), quotient_module(pair)
        )
        seq.validate()
        sol = solve(_section_rows(seq), dh * dn)
        if sol is None:
            cache["h_stable_complement"] = None
        else:
            (t,), dt = _int_rows([sol])
            cache["h_stable_complement"] = [[t.get(b * dn + r, 0) for r in range(dn)] for b in range(dh)], dt
    return cache["h_stable_complement"]


def build_filtration(
    pair: InclusionPair, side: str, K: int, coeff: LieModule | None = None
) -> FilteredModule:
    """Filtration levels 0..K with verified h-actions (cached for trivial
    coefficients, the trivial module given as ``coeff`` included)."""
    if coeff is not None and coeff.key() != trivial_module(pair.h).key():
        return FilteredModule(pair, side, K, coeff)
    cache = pair._caches.setdefault("filtrations", {})
    have = cache.get(side)
    if have is None or have.K < K:
        have = FilteredModule(pair, side, K, None)
        cache[side] = have
    return have


# ---------------------------------------------------------------------------
# short exact sequences and the oracle
# ---------------------------------------------------------------------------


class ShortExactSequence(Record):
    """0 -> sub -> mid -> quot -> 0 in block form: ``sub`` spans the first
    coordinates of ``mid`` and ``quot`` is the rest, so each action of
    ``mid`` is [[act_sub(a), D_a], [0, act_quot(a)]].  Once ``validate`` holds,
    [t; 1] is an equivariant section exactly when act_sub(a) t - t act_quot(a) = -D_a."""

    sub: LieModule
    mid: LieModule
    quot: LieModule

    def validate(self) -> None:
        nsub, nmid = self.sub.dim, self.mid.dim
        if nsub + self.quot.dim != nmid:
            raise ValueError("sequence is not exact")
        ss, sm, sq = self.sub.scale, self.mid.scale, self.quot.scale
        for act, act_sub, act_quot in zip(self.mid.mats, self.sub.mats, self.quot.mats):
            # a block row is its reference row (zeros dropped) when each of its
            # entries matches one and it has as many entries: no copy is made
            for r, s in zip(act, act_sub):
                unmatched = len(s)
                for c, v in r.items():
                    if c < nsub:
                        if ss * v != sm * s.get(c, 0):
                            raise ValueError("inclusion is not equivariant")
                        unmatched -= 1
                if unmatched:
                    raise ValueError("inclusion is not equivariant")
            bottom = act[nsub:]
            if any(c < nsub for r in bottom for c in r):
                raise ValueError("submodule is not stable")
            for r, q in zip(bottom, act_quot):
                if len(r) != len(q):
                    raise ValueError("projection is not equivariant")
                for c, v in r.items():
                    if sq * v != sm * q.get(c - nsub, 0):
                        raise ValueError("projection is not equivariant")


def level_sequence(filt: FilteredModule, k: int, reduced: bool = False) -> ShortExactSequence:
    """0 -> F^{k-1} -> F^k -> gr_k -> 0 (tilde version when ``reduced``)."""
    level = filt.reduced_module if reduced else filt.level_module
    return ShortExactSequence(level(k - 1), level(k), filt.gr_target(k))


def level_system_shape(dn: int, side: str, k: int, vdim: int = 1, reduced: bool = False) -> tuple:
    """(sub.dim, quot.dim) of ``level_sequence(filt, k, reduced)`` for a
    filtration with dim n = dn and coefficients of dimension vdim, from the
    closed-form level dimensions alone; the section oracle solves for
    sub.dim * quot.dim unknowns."""
    dims = _expected_dims(dn, side, k, vdim)
    return dims[k - 1] - reduced, dims[k] - dims[k - 1]


# section_oracle calls by the candidate the check kept: "split in place" (the
# zero block), "built" or "solved", which also counts a call that finds none
ORACLE_ROUTES: Counter = Counter()


def _section_rows(seq: ShortExactSequence):
    """The rows (a, i, j) of act_sub(a) t - t act_quot(a) = -D_a for the top block t of a
    section [t; 1] of a validated ``seq``, times the common scale of its three int forms:
    t[i][j] is column i * quot.dim + j, and the right-hand side column sub.dim * quot.dim."""
    nsub, nquot = seq.sub.dim, seq.quot.dim
    bcol = nsub * nquot
    _, (fs, fq, fm) = _common_scale(seq.sub.scale, seq.quot.scale, seq.mid.scale)
    for a in range(seq.sub.algebra.dim):
        act_s, act_q_cols = seq.sub.mats[a], _columns(seq.quot.mats[a], nquot)
        for i in range(nsub):
            arow, drow = act_s[i], seq.mid.mats[a][i]
            for j in range(nquot):
                row = {k2 * nquot + j: fs * v for k2, v in arow.items()}
                for k2, v in act_q_cols[j].items():
                    _add_term(row, i * nquot + k2, -fq * v)
                rhs = drow.get(nsub + j)
                if rhs:
                    row[bcol] = -fm * rhs
                yield row


def section_oracle(seq: ShortExactSequence, build=None) -> ModuleMap | None:
    """An equivariant section of the projection onto ``quot``, or None.

    Decides "s is equivariant and project . s = id" with no reference to
    cocycles or extension data; this is the independent ground truth for
    every splitting verdict.  Three candidates, each int rows of mid over a
    scale, go in order through one exact check (one row per basis vector of
    mid, the identity as bottom block, ``ModuleMap.from_ints(quot, mid, rows,
    scale).is_equivariant()``), and the first to pass is returned as the map
    that was checked, its rows the candidate's own; ``ORACLE_ROUTES`` counts its route:

    * split in place: the zero block [0; 1], which passes exactly when every D_a is zero;
    * built: ``build()``, when given and not None (``FilteredModule.y_section``);
    * solved: [t; 1], t the free-variables-zero solution of ``_section_rows``;
      no solution means no split, and a solution that fails raises AssertionError.
    """
    seq.validate()
    nsub, nquot, nmid = seq.sub.dim, seq.quot.dim, seq.mid.dim

    def block(t: dict, scale: int) -> tuple:
        """s = [t; 1] as int rows of mid over scale, t[i * nquot + j] its entry (i, j)."""
        rows = [{} for _ in range(nsub)] + [{j: scale} for j in range(nquot)]
        for c, v in t.items():
            rows[c // nquot][c % nquot] = v
        return rows, scale

    def candidates():
        yield "split in place", block({}, 1)
        yield "built", build() if build is not None else None
        # a toral element's rows hold one unknown and the right-hand side, so
        # solve, shortest rows first, fixes those unknowns before the longer rows
        sol = solve(_section_rows(seq), nsub * nquot)
        if sol is not None:
            (t,), scale = _int_rows([sol])
            yield "solved", block(t, scale)

    for route, candidate in candidates():
        if candidate is None or len(candidate[0]) != nmid:
            continue
        rows, scale = candidate
        s = ModuleMap.from_ints(seq.quot, seq.mid, rows, scale)
        is_section = all(rows[nsub + j] == {j: scale} for j in range(nquot))
        if is_section and s.is_equivariant():
            ORACLE_ROUTES[route] += 1
            return s
    ORACLE_ROUTES["solved"] += 1
    if route == "solved":
        raise AssertionError("oracle produced a non-equivariant section")
    return None


def oracle_splits(pair: InclusionPair, address: tuple, sequence, build=None) -> bool:
    """Whether the sequence at ``address`` splits: ``section_oracle(sequence(),
    build) is not None``, decided once per pair and address.  ``sequence``
    builds the sequence and is called only when the address has no verdict
    yet; the route does not enter the memo, since every route ends in the
    same exact check.  A level's address is ``_level_address``; the pushout
    of ``f2_class_check`` has one of its own."""
    cache = pair._caches.setdefault("oracle_verdicts", {})
    if address not in cache:
        cache[address] = section_oracle(sequence(), build) is not None
    return cache[address]


def _level_address(filt: FilteredModule, k: int, reduced: bool) -> tuple:
    """(side, coefficient key or None, k, reduced), one address for the level
    sequences that are equal entry for entry by two identities of the
    construction:

    * A: when dim n <= 1 or k <= 1 every word of the level is a sorted
      monomial, so the straightened level is the free one (same words, same
      left products, S^k(n) = n^(x)k): side ``F``;
    * B: the free level k with coefficients n is the reduced trivial free
      level k + 1 (the word w with coefficient e_x is the word w + (x,)).
    """
    pair = filt.pair
    side = "F" if pair.dim_n <= 1 or k <= 1 else filt.side
    if filt.trivial_coeff:
        return side, None, k, reduced
    key = filt.coeff.key()
    if side == "F" and key == quotient_module(pair).key():
        return "F", None, k + 1, True
    return side, key, k, reduced


def level_splits(filt: FilteredModule, k: int, reduced: bool = False) -> bool:
    """The oracle verdict of ``level_sequence(filt, k, reduced)``, memoised by
    the level's address (``_level_address``), so a level whose address has a
    verdict builds no sequence; a new one is built through the module global
    ``level_sequence`` and its section from an h-stable complement is tried
    first (``FilteredModule.y_section``)."""
    return oracle_splits(
        filt.pair,
        _level_address(filt, k, reduced),
        lambda: level_sequence(filt, k, reduced),
        lambda: filt.y_section(k, reduced),
    )


# ---------------------------------------------------------------------------
# t-maps and the explicit splittings
# ---------------------------------------------------------------------------


def _rho_apply(mats: Sequence[Matrix], word: Word, j: int, antipode: bool = False) -> dict:
    """rho(word) e_j, or rho(S(word)) e_j = (-1)^len(word) rho(x_m)...rho(x_1) e_j,
    as a sparse vector, for rho[u] the matrix ``mats[u]`` (``ExtensionDatum.rho``)."""
    vec = {j: Q(1)}
    for u in word if antipode else reversed(word):
        vec = mats[u].apply(vec)
    if antipode and len(word) % 2:
        vec = {i: -v for i, v in vec.items()}
    return vec


def t_map(pair: InclusionPair, rho: ExtensionDatum, k: int, elem: dict) -> dict:
    """One adjunction step t_k: j_!(n^{(x)k}) -> j_!(n^{(x)k-1}).

    Elements are dicts {(word, index-tuple): coefficient}.  t_1 appends the
    tensor letter to the word; for k >= 2 the recursion is
    t_{k+1} = phi . (t_k (x) id) . psi with the coproduct-based maps of the
    projection formula, the extension datum acting letterwise.
    """
    if k < 1:
        raise ValueError("t-maps start at k = 1")
    out: dict = {}
    if k == 1:
        for (w, tup), c in elem.items():
            _add_term(out, (w + (tup[0],), ()), c)
        return out
    staged: dict = {}  # r -> {(word, head-tuple): coeff}
    for (w, tup), c in elem.items():
        head, last = tup[:-1], tup[-1]
        for (w1, w2), mult in coproduct_word(w).items():
            for r, cr in _rho_apply(rho.rho, w2, last).items():
                _add_term(staged.setdefault(r, {}), (w1, head), c * mult * cr)
    for r, bucket in staged.items():
        # through the module global, so a wrapped t_map sees the recursion
        for (wl, tl), c in t_map(pair, rho, k - 1, bucket).items():
            for (wa, wb), mult in coproduct_word(wl).items():
                for rp, cr in _rho_apply(rho.rho, wb, r, antipode=True).items():
                    _add_term(out, (wa, tl + (rp,)), c * mult * cr)
    return out


def _resolve_rho(pair: InclusionPair, rho: ExtensionDatum | None) -> ExtensionDatum:
    if rho is not None:
        return rho
    found = extension(pair, quotient_module(pair))
    if found is None:
        raise AlphaNontrivialError("the obstruction class is nontrivial; no splitting exists")
    return found


def splitting_s(
    pair: InclusionPair, rho: ExtensionDatum | None, k: int, filt: FilteredModule | None = None
) -> ModuleMap:
    """Equivariant section s_k: n^{(x)k} -> F^k built from the t-map chain."""
    rho = _resolve_rho(pair, rho)
    if filt is None or filt.side != "F" or filt.K < k:
        filt = build_filtration(pair, "F", max(k, 1))
    dn = pair.dim_n
    source = _quotient_power(pair, k)
    cols = []
    for tau in itertools.product(range(dn), repeat=k):
        elem = {((), tau): Q(1)}
        for j in range(k, 0, -1):
            elem = t_map(pair, rho, j, elem)
        col = {}
        for (w, tup), c in elem.items():
            if tup != ():
                raise AssertionError("t-map chain left tensor letters unconsumed")
            if len(w) > k:
                raise AssertionError("t-map chain raised the degree past the cap")
            col[filt.word_index[w]] = c
        cols.append(col)
    matrix = Matrix(len(cols), filt.dim(k), cols).transpose()
    out = ModuleMap(source, filt.level_module(k), matrix)
    if not out.is_equivariant():
        raise AssertionError("s_k is not equivariant")
    if matrix.take(range(filt.dim(k - 1), filt.dim(k)), range(source.dim)) != Matrix.identity(source.dim):
        raise AssertionError("s_k is not a section of the graded projection")
    return out


def _nabla(cols: Sequence[list], x: int, mono: Word) -> dict:
    """nabla_x of a monomial of S(n): rho(x) on each factor in turn, cols[x][y] being rho(x) e_y."""
    out: dict = {}
    for i, y in enumerate(mono):
        for r, v in cols[x][y].items():
            _add_term(out, tuple(sorted(mono[:i] + (r,) + mono[i + 1 :])), v)
    return out


def pbw_splitting_I(pair: InclusionPair, rho: ExtensionDatum | None, K: int) -> list:
    """Sections I_k: S^k(n) -> R^k for k <= K by the connection recursion (the pbw^nabla
    map of Laurent-Gengoux, Stienon and Xu) I(1) = 1, I(x_1...x_k) = (1/k) sum_j
    [x_j . I(rest_j) - I(nabla_{x_j} rest_j)]: x . m straightens the word (x,) + m, and
    nabla = rho is a derivation (``_nabla``).  It equals ``splitting_s`` symmetrized and straightened.
    In ints, degree k holds S_k I with S_k = k S_{k-1} D^k T (D, T the letter and datum scales):
    I_k is returned as the int-form map S_k I_k over S_k that was checked, and its Fractions
    are made only when its ``matrix`` is read."""
    rho = _resolve_rho(pair, rho)
    r_filt = build_filtration(pair, "R", K)
    (mats, T), D = rho.int_rho, _letter_ints(pair)[1]
    cols = [_columns(m, rho.module.dim) for m in mats[: pair.dim_n]]  # nabla reads the n-letters' columns
    images = {(): {(): 1}}  # each monomial of the degree below -> S_{k-1} I(monomial)
    scale = 1
    maps = []
    for k in range(K + 1):
        monos = sym_monomials(pair.dim_n, k)
        if k:
            # x . m: (x,) + m straightened is over D^(len(m) + 1); nabla_x rest is over T
            lifts, dk = [T * D ** (k - 1 - length) for length in range(k)], D ** k
            below, images = images, {}
            for mono in monos:
                acc: dict = {}
                for x in dict.fromkeys(mono):  # equal letters give equal terms
                    j, mult = mono.index(x), mono.count(x)
                    rest = mono[:j] + mono[j + 1 :]
                    terms = [(c * lifts[len(m)], _straightened(pair, (x,) + m)) for m, c in below[rest].items()]
                    terms += [(-c * dk, below[m]) for m, c in _nabla(cols, x, rest).items()]
                    for c, vec in terms:
                        for w, v in vec.items():
                            acc[w] = acc.get(w, 0) + mult * c * v
                images[mono] = {w: c for w, c in acc.items() if c}
            scale *= k * dk * T
        source, level = _quotient_sym_power(pair, k), r_filt.level_module(k)
        rows: list = [{} for _ in range(level.dim)]
        for col, mono in enumerate(monos):
            for w, c in images[mono].items():
                rows[r_filt.word_index[w]][col] = c
        out = ModuleMap.from_ints(source, level, rows, scale)
        if not out.is_equivariant():
            raise AssertionError(f"I_{k} is not equivariant")
        if any(rows[r_filt.dim(k - 1) + i] != {i: scale} for i in range(source.dim)):
            raise AssertionError(f"I_{k} is not a section")
        maps.append(out)
    return maps


# ---------------------------------------------------------------------------
# the level-two comparison with the pushout
# ---------------------------------------------------------------------------


class F2Report(Record):
    well_defined: bool
    squares_commute: bool
    equivariant: bool
    bijective: bool
    q_splits: bool
    f2_splits: bool
    alpha_trivial: bool

    @property
    def iso_ok(self) -> bool:
        return self.well_defined and self.squares_commute and self.equivariant and self.bijective

    @property
    def ok(self) -> bool:
        return self.iso_ok and self.q_splits == self.f2_splits == self.alpha_trivial


def f2_class_check(pair: InclusionPair) -> F2Report:
    """Compare the pushout sequence with the level-two slice of the reduced
    free filtration: build the map on generators, check it descends, makes
    both squares commute, and is an equivariant isomorphism; then cross-check
    that both sequences split together (and agree with the class verdict).
    The pushout's verdict has an address of its own and is decided on its
    own entries: the level-two section from the h-stable complement is its
    candidate, kept only when the exact check accepts it there, and the
    solver decides otherwise."""
    n_mod = quotient_module(pair)
    data = pushout_data(pair, n_mod)
    filt = build_filtration(pair, "F", 2)
    dn = pair.dim_n
    de = n_mod.dim  # = dn
    red2 = filt.reduced_module(2)

    def word_to_reduced(terms: dict) -> dict:
        out: dict = {}
        for (nw, htail), c in terms.items():
            if htail:
                continue
            if not nw:
                raise AssertionError("level-two map produced a constant term")
            _add_term(out, filt.word_index[nw] - 1, c)
        return out

    # the map on E + g (x) E: n = F~^1 (the word (v)), and u (x) s -> the word (u, s)
    ambient_cols = [{v: Q(1)} for v in range(de)]
    for u in range(pair.g.dim):
        for s in range(de):
            ambient_cols.append(word_to_reduced(_normal_form(pair, "F", (u, s))))
    ambient = Matrix(len(ambient_cols), red2.dim, ambient_cols).transpose()
    well_defined = not any(ambient.apply(rel) for rel in data.relations)
    psi = ambient.take(range(red2.dim), range(data.module.dim))

    # both squares: psi restricts to the identity on E = F~^1 and induces it
    # on n (x) E = gr_2, so its first columns and last rows are the identity's
    ident = Matrix.identity(red2.dim)
    every, lower = range(red2.dim), range(dn, red2.dim)
    squares = psi.take(every, range(de)) == ident.take(every, range(dn))
    squares = squares and psi.take(lower, range(psi.cols)) == ident.take(lower, every)
    equivariant = ModuleMap(data.module, red2, psi).is_equivariant()
    bijective = psi.rank() == red2.dim == data.module.dim

    q_seq = ShortExactSequence(n_mod, data.module, _quotient_power(pair, 2))
    q_splits = oracle_splits(pair, ("Q", None, 2, True), lambda: q_seq, lambda: filt.y_section(2, True))
    f2_splits = level_splits(filt, 2, reduced=True)
    alpha_trivial = is_trivial(pair, n_mod) is not None
    return F2Report(well_defined, squares, equivariant, bijective, q_splits, f2_splits, alpha_trivial)


# ---------------------------------------------------------------------------
# dimension identities via independent rank computation
# ---------------------------------------------------------------------------


class DimReport(Record):
    expected: list
    normal_form_counts: list
    rank_codims: list

    @property
    def ok(self) -> bool:
        return self.expected == self.normal_form_counts == self.rank_codims


def _expected_dims(dn: int, side: str, K: int, vdim: int) -> list:
    """Closed-form dim F^k (resp. R^k) for k <= K, dim n = dn, with
    coefficients of dimension vdim."""
    out = []
    total = 0
    for k in range(K + 1):
        total += dn ** k if side == "F" else sym_dim(dn, k)
        out.append(total * vdim)
    return out


def _right_factors(dg: int, dn: int, length: int) -> list:
    """The right factors w2 of one length, as base-dim(g) word codes, that a
    core placement w1 r w2 needs: the empty word and the words ending in an
    n-letter.  A placement whose w2 ends in an h-letter is zero, since each
    of its words ends in an h-letter."""
    return [w for w in range(dg ** length) if not length or w % dg < dn]


def _n_commutators(dn: int) -> list:
    """The straightened side's cores that the free side lacks: the letter
    pairs (x, y), x > y, of two n-letters."""
    return [(x, y) for x in range(dn) for y in range(x)]


def _rank_codims(pair: InclusionPair, K: int) -> dict:
    """The rank codimensions of both sides up to K, by side, from one staged
    elimination (see ``dimension_identity_check``)."""
    dg = pair.g.dim
    dn = pair.dim_n
    # sizes[k]: the words of degree <= k that are empty or end in an n-letter
    sizes = [1]
    for k in range(1, K + 1):
        sizes.append(sizes[-1] + dg ** (k - 1) * dn)
    last = sizes[-1] - 1
    # column[k][w] for each word w = w' x of degree k, by its base-dg code:
    # its column when x is an n-letter, else None; the columns run from the
    # top degree down, so that a placement pivots on its top-degree word
    column = [[last]]
    for k in range(1, K + 1):
        column.append([
            last - sizes[k - 1] - w * dn - x if x < dn else None for w in range(dg ** (k - 1)) for x in range(dg)
        ])

    # each core e_{xy} - e_{yx} - [x, y] times D, as [x, y] = ints[x][y] / D,
    # its terms (word code, degree, coefficient)
    ints, D = _letter_ints(pair)

    def cores(pairs):
        return [
            [(x * dg + y, 2, D), (y * dg + x, 2, -D)] + [(u, 1, -c) for u, c in ints[x][y].items()] for x, y in pairs
        ]

    def stage(rels, k):
        """The placements w1 r w2 of the cores rels of top degree k, shortest first."""
        out = []
        for core in rels:
            for k1 in range(k - 1):
                k2 = k - 2 - k1
                w2s = _right_factors(dg, dn, k2)
                for w1 in range(dg ** k1):
                    heads = [(column[k1 + m + k2], (w1 * dg ** m + mid) * dg ** k2, c) for mid, m, c in core]
                    for w2 in w2s:
                        vec: dict = {}
                        for table, head, c in heads:
                            col = table[head + w2]
                            if col is not None:
                                _add_term(vec, col, c)
                        if vec:
                            out.append(vec)
        out.sort(key=len)
        return out

    # inserting by top degree makes the echelon rank after stage k exactly
    # the rank of the degree <= k relation span; within a stage the shortest
    # go first, so fewer pivots are cleared later
    free, commutators = cores(quadratic_data(pair)), cores(_n_commutators(dn))
    span = Echelon(sizes[-1])
    extra = []  # the commutator placements of degree <= k
    codims: dict = {"F": [], "R": []}
    for k in range(K + 1):
        for vec in stage(free, k):
            span.insert(vec)
        codims["F"].append(sizes[k] - span.rank)
        extra += stage(commutators, k)
        codims["R"].append(sizes[k] - _rank_with(span, extra))
    return codims


def _rank_with(span: Echelon, rows: list) -> int:
    """The rank of the span grown by the rows, on a copy freed on return."""
    if not rows:
        return span.rank
    grown = span.copy()
    for vec in rows:
        grown.insert(vec)
    return grown.rank


def dimension_identity_check(pair: InclusionPair, side: str, K: int) -> DimReport:
    """Validate dim F^k (resp. R^k) against an independent rank computation.

    The report holds three numbers per degree: the closed form, the basis
    size of the built filtration (``normal_form_counts``) and the rank
    codimension.  ``normal_form_counts`` is ``FilteredModule.dim(k)``, the
    size of a basis enumerated by ``itertools.product`` (resp.
    ``sym_monomials``), so it equals the closed form for every input; the
    rewriting is checked where ``build_filtration`` builds the levels, by
    the escape check (a normal form outside the degree-K basis) and the
    bracket compatibility of the level actions.  The rank codimension is the
    independent number: the codimension of the span of the obvious
    degree-bounded relation vectors inside the truncated tensor algebra, so
    its equality with the closed form certifies the graded dimension
    identity for trivial coefficients.

    The relations are the core placements w1 (x y - y x - [x, y]) w2 and the
    words w a, a in h, which the trivial module's zero action sends to zero.
    Each word w a is a relation on a column of its own, so the rank of all
    the relations is their number plus the rank of the core placements over
    the other columns: the words that are empty or end in an n-letter.

    The free side's cores are those of the qR pairs (``quadratic_data``):
    (a, x) with a an h-letter and x an n-letter or a later h-letter; the
    pairs left out give a zero core (x = a) or the negative of a kept one.
    The straightened side's cores span that space plus the commutators of
    two n-letters (``_n_commutators``).  So one staged elimination serves
    both sides: after stage k it holds the free side's degree <= k span, and
    a copy of it grown by the commutator placements of degree <= k holds the
    straightened side's.  Both codimension lists are cached on the pair by
    the cap, so the second side's call reads them; the columns depend on the
    cap, so each cap is eliminated afresh.
    """
    cache = pair._caches.setdefault("rank_codims", {})
    if K not in cache:
        cache[K] = _rank_codims(pair, K)
    filt = build_filtration(pair, side, K)
    counts = [filt.dim(k) for k in range(K + 1)]
    return DimReport(_expected_dims(pair.dim_n, side, K, 1), counts, cache[K][side])


# ---------------------------------------------------------------------------
# theorem harnesses
# ---------------------------------------------------------------------------


class HarnessReport(Record):
    alpha_trivial: bool
    f_levels: dict
    r_levels: dict

    @property
    def ok(self) -> bool:
        verdicts = list(self.f_levels.values()) + list(self.r_levels.values())
        return all(v == self.alpha_trivial for v in verdicts)


def equivalence_harness(pair: InclusionPair, K: int = 4) -> HarnessReport:
    """Three-way agreement: alpha triviality vs. oracle splittings of the
    reduced level sequences on both sides, for 2 <= k <= K.

    Level one is degenerate (its reduced sequence is 0 -> 0 -> n -> n -> 0,
    split for every pair); the first sequence carrying the class is k = 2.
    """
    alpha_trivial = is_trivial(pair, quotient_module(pair)) is not None
    return HarnessReport(alpha_trivial, *_level_verdicts(pair, K))


def _level_verdicts(pair: InclusionPair, K: int, coeff: LieModule | None = None) -> tuple:
    """The oracle verdict of each level sequence, as ({k: splits} on the free
    side, the same on the straightened side): the reduced sequences for
    2 <= k <= K with trivial coefficients (``coeff`` None), else the
    unreduced ones for 1 <= k <= K."""
    filts = [build_filtration(pair, side, K, coeff=coeff) for side in "FR"]
    levels: tuple = ({}, {})
    for k in range(2 if coeff is None else 1, K + 1):
        for filt, out in zip(filts, levels):
            out[k] = level_splits(filt, k, reduced=coeff is None)
    return levels


class TwistedReport(Record):
    alpha_trivial: bool
    alpha_v_trivial: bool
    f_levels: dict
    r_levels: dict

    @property
    def predicted_split(self) -> bool:
        return self.alpha_trivial and self.alpha_v_trivial

    @property
    def observed_all_split(self) -> bool:
        return all(self.f_levels.values()) and all(self.r_levels.values())

    @property
    def conclusive(self) -> bool:
        return self.predicted_split or not self.observed_all_split

    @property
    def ok(self) -> bool:
        # a non-trivial class predicts a non-split level somewhere; finding
        # none up to the cap is cap-limited (inconclusive), not a falsification
        return self.observed_all_split or not self.predicted_split


def twisted_verdict(pair: InclusionPair, coeff: LieModule, K: int) -> TwistedReport:
    """Check the module-twisted equivalence at degree cap K: both classes
    trivial iff the twisted filtrations split (levelwise, unreduced)."""
    alpha_trivial = is_trivial(pair, quotient_module(pair)) is not None
    alpha_v_trivial = is_trivial(pair, coeff) is not None
    return TwistedReport(alpha_trivial, alpha_v_trivial, *_level_verdicts(pair, K, coeff))
