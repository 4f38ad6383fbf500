"""Truncated normal-form models of the two quotient modules and their
filtrations, the explicit splitting maps, and the brute-force section oracle.

Two rewriting systems over the adapted letters (n-letters 0..dim_n-1, then
h-letters) produce the normal forms:

* free side (``F``): only h-letters commute across other letters, via
  a x -> x a + [i(a), x]; surviving words are free words in the n-letters,
  and a trailing block of h-letters is the part that acts on the coefficient
  module (it annihilates the trivial module).
* straightened side (``R``): every out-of-order adjacent pair is swapped,
  x y -> y x + [x, y]; surviving monomials are weakly increasing words in the
  n-letters, again with an h-tail acting on the coefficients.

Filtration levels are spanned by the normal forms of bounded degree; the
h-action is left multiplication followed by reduction.  Both gradings, the
dimension identities, and every splitting claim are re-checked against the
independent section oracle, which knows nothing about cocycles or t-maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cohomology import ExtensionDatum, find_extension, is_trivial, pushout_data
from .lie import (
    InclusionPair,
    LieModule,
    ModuleMap,
    quotient_module,
    sym_monomials,
    sym_power_module,
    tensor_module,
    tensor_power_module,
    trivial_module,
)
from .linalg import Echelon, LinearSolver, Matrix, Q


class AlphaNontrivialError(RuntimeError):
    """A splitting was requested but the obstruction class does not vanish."""


class RewritingInconsistencyError(RuntimeError):
    """Normal forms failed an independent cross-check; aborting instead of
    returning unsound data."""


Word = tuple  # tuple of adapted letter indices

# element representations (sparse linear combinations):
#   FreeWordElement:       {n-word: coefficient}, arbitrary words, degree-capped
#   OrderedMonomialElement: {weakly increasing n-word: coefficient}
#   InducedElement:        {(n-word, coefficient-basis tuple): coefficient}
FreeWordElement = dict
OrderedMonomialElement = dict
InducedElement = dict


# ---------------------------------------------------------------------------
# word rewriting
# ---------------------------------------------------------------------------


def _caches(pair: InclusionPair) -> dict:
    return pair._caches


def _add_term(acc: dict, key, coeff: Fraction) -> None:
    w = acc.get(key, 0) + coeff
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _reduce_free(pair: InclusionPair, word: Word) -> dict:
    """Normal form of a g-word in the free-side quotient: a combination of
    (n-word, h-tail) pairs."""
    cache = _caches(pair).setdefault("free_words", {})
    if word in cache:
        return cache[word]
    dn = pair.dim_n
    m = len(word)
    s = m
    while s > 0 and word[s - 1] >= dn:
        s -= 1
    i = None
    for k in range(s - 1, -1, -1):
        if word[k] >= dn:
            i = k
            break
    if i is None:
        result = {(word[:s], word[s:]): Q(1)}
        cache[word] = result
        return result
    out: dict = {}
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
    for key, c in _reduce_free(pair, swapped).items():
        _add_term(out, key, c)
    for letter, coeff in pair.bracket_letters(word[i], word[i + 1]).items():
        shorter = word[:i] + (letter,) + word[i + 2:]
        for key, c in _reduce_free(pair, shorter).items():
            _add_term(out, key, coeff * c)
    cache[word] = out
    return out


def _straighten(pair: InclusionPair, word: Word) -> dict:
    """Normal form in the straightened quotient: combinations of
    (weakly increasing n-word, weakly increasing h-tail)."""
    cache = _caches(pair).setdefault("pbw_words", {})
    if word in cache:
        return cache[word]
    i = None
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            i = k
            break
    if i is None:
        dn = pair.dim_n
        s = 0
        while s < len(word) and word[s] < dn:
            s += 1
        result = {(word[:s], word[s:]): Q(1)}
        cache[word] = result
        return result
    out: dict = {}
    swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
    for key, c in _straighten(pair, swapped).items():
        _add_term(out, key, c)
    for letter, coeff in pair.bracket_letters(word[i], word[i + 1]).items():
        shorter = word[:i] + (letter,) + word[i + 2:]
        for key, c in _straighten(pair, shorter).items():
            _add_term(out, key, coeff * c)
    cache[word] = out
    return out


def reduce_h1(pair: InclusionPair, word: Word) -> dict:
    """Free-side normal form of a g-word: combination of pure n-letter words.

    Words that end in an h-letter lie in the left ideal and die.
    """
    out: dict = {}
    for (nword, htail), c in _reduce_free(pair, tuple(word)).items():
        if not htail:
            _add_term(out, nword, c)
    return out


def straighten_g(pair: InclusionPair, word: Word) -> dict:
    """Straightened normal form of a g-word: combination of weakly
    increasing n-letter monomials."""
    out: dict = {}
    for (mono, htail), c in _straighten(pair, tuple(word)).items():
        if not htail:
            _add_term(out, mono, c)
    return out


# ---------------------------------------------------------------------------
# Hopf structure on words (generators primitive)
# ---------------------------------------------------------------------------


def coproduct_word(word: Word) -> dict:
    """All order-preserving splittings of the word: Delta is multiplicative
    with every letter primitive."""
    word = tuple(word)
    m = len(word)
    out: dict = {}
    for mask in range(1 << m):
        left = tuple(word[i] for i in range(m) if mask & (1 << i))
        right = tuple(word[i] for i in range(m) if not mask & (1 << i))
        _add_term(out, (left, right), Q(1))
    return out


def antipode_word(word: Word):
    """Signed reversal: S(x_1 ... x_m) = (-1)^m x_m ... x_1."""
    word = tuple(word)
    return (Q(-1) ** len(word), word[::-1])


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


def _compose_h_tail(coeff: LieModule, htail: Word, dn: int) -> Matrix:
    """Action of an h-letter tail on the coefficient module (leftmost letter
    outermost)."""
    out = Matrix.identity(coeff.dim)
    for letter in reversed(htail):
        out = coeff.action[letter - dn].mul(out)
    return out


class FilteredModule:
    """Levels F^0 c F^1 c ... (or R^.) with their h-actions.

    The basis at level k consists of the normal-form words of degree <= k
    paired with a coefficient-module basis vector; the degree-(k-1) basis is
    a prefix, so inclusions are coordinate injections.
    """

    def __init__(self, pair: InclusionPair, side: str, K: int, coeff: Optional[LieModule] = None):
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
        self._n_mod = quotient_module(pair)
        self.actions = [self._action_matrix(a) for a in range(pair.dim_h)]
        self._verify()

    # -- construction helpers ------------------------------------------------

    def _reduce(self, word: Word) -> dict:
        if self.side == "F":
            return _reduce_free(self.pair, word)
        return _straighten(self.pair, word)

    def _action_matrix(self, a: int) -> Matrix:
        pair = self.pair
        dn = pair.dim_n
        full = len(self.words) * self.vdim
        mat = Matrix.zeros(full, full)
        tail_cache: dict = {}
        for wpos, w in enumerate(self.words):
            reduced = self._reduce((dn + a,) + w)
            for (nw, htail), c in reduced.items():
                if nw not in self.word_index:
                    raise RewritingInconsistencyError(
                        f"normal form {nw} escaped the degree-{self.K} basis"
                    )
                rowbase = self.word_index[nw] * self.vdim
                if not htail:
                    for v in range(self.vdim):
                        _add_term(mat.data[rowbase + v], wpos * self.vdim + v, c)
                else:
                    if self.trivial_coeff:
                        continue
                    if htail not in tail_cache:
                        tail_cache[htail] = _compose_h_tail(self.coeff, htail, dn)
                    tail = tail_cache[htail]
                    for v in range(self.vdim):
                        for i, row in enumerate(tail.data):
                            if v in row:
                                _add_term(mat.data[rowbase + i], wpos * self.vdim + v, c * row[v])
        return mat

    def _verify(self) -> None:
        # bracket compatibility doubles as an empirical confluence check
        mod = LieModule(self.pair.h, len(self.words) * self.vdim, self.actions)
        bad = mod.compatibility_defects()
        if bad:
            raise RewritingInconsistencyError(
                f"level actions violate bracket compatibility at h-basis pairs {bad}"
            )
        if self.trivial_coeff:
            for act in self.actions:
                if any(act.entry(0, j) for j in range(1, act.cols)) or any(
                    act.entry(i, 0) for i in range(act.rows)
                ):
                    raise RewritingInconsistencyError("constant line is not a direct summand")

    # -- level access ---------------------------------------------------------

    def dim(self, k: int) -> int:
        return self._word_offsets[k + 1] * self.vdim

    def gr_dim(self, k: int) -> int:
        return (self._word_offsets[k + 1] - self._word_offsets[k]) * self.vdim

    def level_module(self, k: int) -> LieModule:
        d = self.dim(k)
        idx = list(range(d))
        return LieModule(self.pair.h, d, [m.take(idx, idx) for m in self.actions])

    def reduced_module(self, k: int) -> LieModule:
        if not self.trivial_coeff:
            raise ValueError("reduced filtration only applies to trivial coefficients")
        idx = list(range(1, self.dim(k)))
        return LieModule(self.pair.h, len(idx), [m.take(idx, idx) for m in self.actions])

    def gr_module(self, k: int) -> LieModule:
        lo, hi = self._word_offsets[k] * self.vdim, self._word_offsets[k + 1] * self.vdim
        idx = list(range(lo, hi))
        return LieModule(self.pair.h, len(idx), [m.take(idx, idx) for m in self.actions])

    def gr_target(self, k: int) -> LieModule:
        power = (
            tensor_power_module(self._n_mod, k)
            if self.side == "F"
            else sym_power_module(self._n_mod, k)
        )
        if self.trivial_coeff:
            return power
        return tensor_module(power, self.coeff)

    def include(self, k: int) -> Matrix:
        sub, mid = self.dim(k - 1), self.dim(k)
        m = Matrix.zeros(mid, sub)
        for i in range(sub):
            m.data[i][i] = Q(1)
        return m

    def proj_gr(self, k: int) -> Matrix:
        lo = self._word_offsets[k] * self.vdim
        m = Matrix.zeros(self.gr_dim(k), self.dim(k))
        for i in range(self.gr_dim(k)):
            m.data[i][lo + i] = Q(1)
        return m


def build_filtration(
    pair: InclusionPair, side: str, K: int, coeff: Optional[LieModule] = None
) -> FilteredModule:
    """Filtration levels 0..K with verified h-actions (cached for trivial
    coefficients)."""
    if coeff is not None:
        return FilteredModule(pair, side, K, coeff)
    cache = _caches(pair).setdefault("filtrations", {})
    have = cache.get(side)
    if have is None or have.K < K:
        have = FilteredModule(pair, side, K, None)
        cache[side] = have
    return have


@dataclass
class GrCheckReport:
    side: str
    k: int
    dim_ok: bool
    action_ok: bool

    @property
    def ok(self) -> bool:
        return self.dim_ok and self.action_ok


def gr_check(filt: FilteredModule, k: int) -> GrCheckReport:
    """The canonical surjection from the tensor (resp. symmetric) power onto
    the graded piece is the identity on our coordinates; check it matches the
    module structures."""
    target = filt.gr_target(k)
    got = filt.gr_module(k)
    dim_ok = target.dim == got.dim
    action_ok = dim_ok and all(target.action[a] == got.action[a] for a in range(filt.pair.dim_h))
    return GrCheckReport(filt.side, k, dim_ok, action_ok)


# ---------------------------------------------------------------------------
# short exact sequences and the oracle
# ---------------------------------------------------------------------------


@dataclass
class ShortExactSequence:
    sub: LieModule
    mid: LieModule
    quot: LieModule
    include: Matrix
    project: Matrix

    def validate(self) -> None:
        if not ModuleMap(self.sub, self.mid, self.include).is_equivariant():
            raise ValueError("inclusion is not equivariant")
        if not ModuleMap(self.mid, self.quot, self.project).is_equivariant():
            raise ValueError("projection is not equivariant")
        if not self.project.mul(self.include).is_zero():
            raise ValueError("projection does not kill the submodule")
        ri = self.include.rank()
        rp = self.project.rank()
        if ri != self.sub.dim or rp != self.quot.dim or ri + rp != self.mid.dim:
            raise ValueError("sequence is not exact")


def level_sequence(filt: FilteredModule, k: int, reduced: bool = False) -> ShortExactSequence:
    """0 -> F^{k-1} -> F^k -> gr_k -> 0 (tilde version when ``reduced``)."""
    if reduced:
        sub = filt.reduced_module(k - 1)
        mid = filt.reduced_module(k)
        offset = 1
    else:
        sub = filt.level_module(k - 1)
        mid = filt.level_module(k)
        offset = 0
    quot = filt.gr_target(k)
    include = Matrix.zeros(mid.dim, sub.dim)
    for i in range(sub.dim):
        include.data[i][i] = Q(1)
    lo = filt._word_offsets[k] * filt.vdim - offset
    project = Matrix.zeros(quot.dim, mid.dim)
    for i in range(quot.dim):
        project.data[i][lo + i] = Q(1)
    return ShortExactSequence(sub, mid, quot, include, project)


def section_oracle(seq: ShortExactSequence) -> Optional[Matrix]:
    """Brute-force equivariant section of ``project``, or None.

    Solves the linear system "s is equivariant and project . s = id" with no
    reference to cocycles or extension data; this is the independent ground
    truth for every splitting verdict.
    """
    seq.validate()
    h_dim = seq.sub.algebra.dim
    s0_solver = LinearSolver(seq.project)
    s0 = Matrix.zeros(seq.mid.dim, seq.quot.dim)
    for j in range(seq.quot.dim):
        e = [Q(0)] * seq.quot.dim
        e[j] = Q(1)
        x = s0_solver.solve(e)
        if x is None:
            raise ValueError("projection is not surjective")
        for i, v in enumerate(x):
            if v:
                s0.data[i][j] = v
    incl_solver = LinearSolver(seq.include)
    d_mats = []
    for a in range(h_dim):
        residual = seq.mid.action[a].mul(s0) - s0.mul(seq.quot.action[a])
        d = Matrix.zeros(seq.sub.dim, seq.quot.dim)
        for j in range(seq.quot.dim):
            col = residual.col_list(j)
            y = incl_solver.solve(col)
            if y is None:
                raise ValueError("equivariance residual escapes the submodule")
            for i, v in enumerate(y):
                if v:
                    d.data[i][j] = v
        d_mats.append(d)
    # unknown correction t: sub -> quot source; act_sub(a) t - t act_quot(a) = -D_a
    nsub, nquot = seq.sub.dim, seq.quot.dim
    if nsub == 0:
        return s0
    ech = Echelon(nsub * nquot + 1)
    bcol = nsub * nquot
    for a in range(h_dim):
        act_s = seq.sub.action[a]
        act_q = seq.quot.action[a]
        act_q_cols = act_q.transpose()
        for i in range(nsub):
            arow = act_s.data[i]
            for j in range(nquot):
                row: dict = {}
                for k2, v in arow.items():
                    _add_term(row, k2 * nquot + j, v)
                for k2, v in act_q_cols.data[j].items():
                    _add_term(row, i * nquot + k2, -v)
                rhs = -d_mats[a].entry(i, j)
                if rhs:
                    row[bcol] = rhs
                if row:
                    ech.insert(row)
    sol = ech.solution(bcol)
    if sol is None:
        return None
    t = Matrix.zeros(nsub, nquot)
    for c, v in sol.items():
        t.data[c // nquot][c % nquot] = v
    s = s0 + seq.include.mul(t)
    if seq.project.mul(s) != Matrix.identity(seq.quot.dim):
        raise AssertionError("oracle produced a non-section")
    if not ModuleMap(seq.quot, seq.mid, s).is_equivariant():
        raise AssertionError("oracle produced a non-equivariant section")
    return s


# ---------------------------------------------------------------------------
# t-maps and the explicit splittings
# ---------------------------------------------------------------------------


def _rho_apply(rho: Sequence[Matrix], word: Word, j: int, antipode: bool = False) -> dict:
    """rho(word) e_j (or rho(S(word)) e_j) as a sparse vector."""
    vec = {j: Q(1)}
    letters = word if antipode else reversed(word)
    for u in letters:
        nxt: dict = {}
        m = rho[u]
        for c, v in vec.items():
            for i, row in enumerate(m.data):
                if c in row:
                    _add_term(nxt, i, row[c] * v)
        vec = nxt
        if not vec:
            return {}
    if antipode and len(word) % 2:
        vec = {k: -v for k, v in vec.items()}
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
    if k == 1:
        out: dict = {}
        for (w, tup), c in elem.items():
            _add_term(out, (w + (tup[0],), ()), c)
        return out
    mats = rho.rho
    staged: dict = {}  # r -> {(word, head-tuple): coeff}
    for (w, tup), c in elem.items():
        head, last = tup[:-1], tup[-1]
        for (w1, w2), mult in coproduct_word(w).items():
            for r, cr in _rho_apply(mats, w2, last).items():
                bucket = staged.setdefault(r, {})
                _add_term(bucket, (w1, head), c * mult * cr)
    out: dict = {}
    for r, bucket in staged.items():
        lowered = t_map(pair, rho, k - 1, bucket)
        for (w, tup), c in lowered.items():
            for (wa, wb), mult in coproduct_word(w).items():
                for rp, cr in _rho_apply(mats, wb, r, antipode=True).items():
                    _add_term(out, (wa, tup + (rp,)), c * mult * cr)
    return out


def _resolve_rho(pair: InclusionPair, rho: Optional[ExtensionDatum]) -> ExtensionDatum:
    if rho is not None:
        return rho
    found = find_extension(pair, quotient_module(pair))
    if found is None:
        raise AlphaNontrivialError("the obstruction class is nontrivial; no splitting exists")
    return found


def splitting_s(
    pair: InclusionPair, rho: Optional[ExtensionDatum], k: int, filt: Optional[FilteredModule] = None
) -> ModuleMap:
    """Equivariant section s_k: n^{(x)k} -> F^k built from the t-map chain."""
    rho = _resolve_rho(pair, rho)
    if filt is None or filt.side != "F" or filt.K < k:
        filt = build_filtration(pair, "F", max(k, 1))
    dn = pair.dim_n
    n_mod = quotient_module(pair)
    source = tensor_power_module(n_mod, k)
    cols = []
    for tau in itertools.product(range(dn), repeat=k):
        elem = {((), tau): Q(1)}
        for j in range(k, 0, -1):
            elem = t_map(pair, rho, j, elem)
        col = [Q(0)] * filt.dim(k)
        for (w, tup), c in elem.items():
            if tup != ():
                raise AssertionError("t-map chain left tensor letters unconsumed")
            if len(w) > k:
                raise AssertionError("t-map chain raised the degree past the cap")
            col[filt.word_index[w]] = c
        cols.append(col)
    matrix = Matrix.from_cols(cols, rows=filt.dim(k))
    out = ModuleMap(source, filt.level_module(k), matrix)
    if not out.is_equivariant():
        raise AssertionError("s_k is not equivariant")
    if filt.proj_gr(k).mul(matrix) != Matrix.identity(source.dim):
        raise AssertionError("s_k is not a section of the graded projection")
    out.rho = rho  # record which extension datum produced the splitting
    return out


def _symmetrization(dn: int, k: int) -> Matrix:
    """S^k(n) -> n^{(x)k}: each monomial averaged over all k! orderings."""
    monos = sym_monomials(dn, k)
    rows = dn ** k
    m = Matrix.zeros(rows, len(monos))
    if k == 0:
        m.data[0][0] = Q(1)
        return m
    inv = Q(1, _factorial(k))
    powers = [dn ** (k - 1 - i) for i in range(k)]
    for col, mono in enumerate(monos):
        for perm in itertools.permutations(mono):
            idx = sum(p * powers[i] for i, p in enumerate(perm))
            _add_term(m.data[idx], col, inv)
    return m


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def pbw_splitting_I(pair: InclusionPair, rho: Optional[ExtensionDatum], K: int) -> list:
    """Sections I_k: S^k(n) -> R^k for k <= K: symmetrize, apply s_k, then
    straighten the free word inside the ambient quotient."""
    rho = _resolve_rho(pair, rho)
    f_filt = build_filtration(pair, "F", K)
    r_filt = build_filtration(pair, "R", K)
    n_mod = quotient_module(pair)
    dn = pair.dim_n
    maps = []
    for k in range(K + 1):
        sym = _symmetrization(dn, k)
        if k == 0:
            canon = Matrix.zeros(r_filt.dim(0), f_filt.dim(0))
            canon.data[0][0] = Q(1)
            s_mat = Matrix.identity(1)
        else:
            s_mat = splitting_s(pair, rho, k, filt=f_filt).matrix
            canon = Matrix.zeros(r_filt.dim(k), f_filt.dim(k))
            for wpos in range(f_filt._word_offsets[k + 1]):
                w = f_filt.words[wpos]
                for mono, c in straighten_g(pair, w).items():
                    canon.data[r_filt.word_index[mono]][wpos] = c
        matrix = canon.mul(s_mat).mul(sym)
        source = sym_power_module(n_mod, k)
        out = ModuleMap(source, r_filt.level_module(k), matrix)
        if not out.is_equivariant():
            raise AssertionError(f"I_{k} is not equivariant")
        if r_filt.proj_gr(k).mul(matrix) != Matrix.identity(source.dim):
            raise AssertionError(f"I_{k} is not a section")
        out.rho = rho
        maps.append(out)
    return maps


# ---------------------------------------------------------------------------
# the level-two comparison with the pushout
# ---------------------------------------------------------------------------


@dataclass
class F2Report:
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
    that both sequences split together (and agree with the class verdict)."""
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

    ambient_cols = []
    for v in range(de):
        ambient_cols.append({v: Q(1)})  # n-part: n = F~^1, word (v)
    for u in range(pair.g.dim):
        for s in range(de):
            ambient_cols.append(word_to_reduced(_reduce_free(pair, (u, s))))
    well_defined = True
    for rel in data.relations:
        img: dict = {}
        for c, v in rel.items():
            for i, w in ambient_cols[c].items():
                _add_term(img, i, w * v)
        if img:
            well_defined = False
            break
    psi = Matrix.zeros(red2.dim, data.module.dim)
    for k, c in enumerate(data.free):
        for i, v in ambient_cols[c].items():
            psi.data[i][k] = v

    incl_f = Matrix.zeros(red2.dim, dn)
    for s in range(dn):
        incl_f.data[s][s] = Q(1)
    proj_f = Matrix.zeros(dn * dn, red2.dim)
    for i in range(dn * dn):
        proj_f.data[i][dn + i] = Q(1)
    squares = psi.mul(data.include.matrix) == incl_f and proj_f.mul(psi) == data.project.matrix
    equivariant = ModuleMap(data.module, red2, psi).is_equivariant()
    bijective = psi.rank() == red2.dim == data.module.dim

    ne = data.project.target
    q_seq = ShortExactSequence(n_mod, data.module, ne, data.include.matrix, data.project.matrix)
    f_seq = level_sequence(filt, 2, reduced=True)
    q_splits = section_oracle(q_seq) is not None
    f2_splits = section_oracle(f_seq) is not None
    alpha_trivial = is_trivial(pair, n_mod) is not None
    return F2Report(well_defined, squares, equivariant, bijective, q_splits, f2_splits, alpha_trivial)


# ---------------------------------------------------------------------------
# dimension identities via independent rank computation
# ---------------------------------------------------------------------------


@dataclass
class DimReport:
    side: str
    K: int
    expected: list
    normal_form_counts: list
    rank_codims: list

    @property
    def ok(self) -> bool:
        return self.expected == self.normal_form_counts == self.rank_codims


def _expected_dims(pair: InclusionPair, side: str, K: int, vdim: int) -> list:
    dn = pair.dim_n
    out = []
    total = 0
    for k in range(K + 1):
        if side == "F":
            total += dn ** k
        else:
            total += _binom(dn + k - 1, k)
        out.append(total * vdim)
    return out


def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def dimension_identity_check(
    pair: InclusionPair, side: str, K: int, coeff: Optional[LieModule] = None
) -> DimReport:
    """Validate dim F^k (resp. R^k) against an independent rank computation.

    The span of the obvious degree-bounded relation vectors inside the
    truncated tensor algebra has codimension at least dim F^k and at most the
    normal-form count, so equality of the three numbers certifies both the
    graded dimension identity and the consistency of the rewriting.
    """
    dg = pair.g.dim
    dn = pair.dim_n
    vdim = coeff.dim if coeff is not None else 1
    # enumerate all words of degree <= K over the adapted letters
    index: dict = {}
    words: list = []
    for k in range(K + 1):
        for w in itertools.product(range(dg), repeat=k):
            index[w] = len(words)
            words.append(w)
    ambient = len(words) * vdim

    def rel_pairs():
        if side == "F":
            for a in range(dn, dg):
                for x in range(dg):
                    yield (a, x)
        else:
            for x in range(dg):
                for y in range(x):
                    yield (x, y)

    cores = {}
    for (x, y) in rel_pairs():
        cores[(x, y)] = [((x, y), Q(1)), ((y, x), Q(-1))] + [
            ((u,), c) for u, c in pair.bracket_letters(x, y).items()
        ]
    act = coeff.action if coeff is not None else None
    # insert relations by their top degree so the echelon rank after stage k
    # is exactly the rank of the degree <= k relation span
    span = Echelon(ambient)
    rank_codims = []
    for k in range(K + 1):
        if k >= 2:
            for core in cores.values():
                for k1 in range(k - 1):
                    for w1 in itertools.product(range(dg), repeat=k1):
                        for w2 in itertools.product(range(dg), repeat=k - 2 - k1):
                            for v in range(vdim):
                                vec: dict = {}
                                for mid, c in core:
                                    _add_term(vec, index[w1 + mid + w2] * vdim + v, c)
                                span.insert(vec)
        if k >= 1:
            for w in itertools.product(range(dg), repeat=k - 1):
                for a in range(pair.dim_h):
                    for v in range(vdim):
                        vec = {index[w + (dn + a,)] * vdim + v: Q(1)}
                        if act is not None:
                            for i, row in enumerate(act[a].data):
                                if v in row:
                                    _add_term(vec, index[w] * vdim + i, -row[v])
                        span.insert(vec)
        sub_ambient = sum(dg ** i for i in range(k + 1)) * vdim
        rank_codims.append(sub_ambient - span.rank)
    counts = []
    total = 0
    for k in range(K + 1):
        if side == "F":
            total += dn ** k
        else:
            total += _binom(dn + k - 1, k)
        counts.append(total * vdim)
    return DimReport(side, K, _expected_dims(pair, side, K, vdim), counts, rank_codims)


# ---------------------------------------------------------------------------
# theorem harnesses
# ---------------------------------------------------------------------------


@dataclass
class HarnessReport:
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
    n_mod = quotient_module(pair)
    alpha_trivial = is_trivial(pair, n_mod) is not None
    f_filt = build_filtration(pair, "F", K)
    r_filt = build_filtration(pair, "R", K)
    f_levels = {}
    r_levels = {}
    for k in range(2, K + 1):
        f_levels[k] = section_oracle(level_sequence(f_filt, k, reduced=True)) is not None
        r_levels[k] = section_oracle(level_sequence(r_filt, k, reduced=True)) is not None
    return HarnessReport(alpha_trivial, f_levels, r_levels)


@dataclass
class TwistedReport:
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
        if self.predicted_split:
            return self.observed_all_split
        return not self.observed_all_split


def twisted_verdict(pair: InclusionPair, coeff: LieModule, K: int) -> TwistedReport:
    """Check the module-twisted equivalence at degree cap K: both classes
    trivial iff the twisted filtrations split (levelwise, unreduced)."""
    n_mod = quotient_module(pair)
    alpha_trivial = is_trivial(pair, n_mod) is not None
    alpha_v_trivial = is_trivial(pair, coeff) is not None
    f_filt = build_filtration(pair, "F", K, coeff=coeff)
    r_filt = build_filtration(pair, "R", K, coeff=coeff)
    f_levels = {}
    r_levels = {}
    for k in range(1, K + 1):
        f_levels[k] = section_oracle(level_sequence(f_filt, k)) is not None
        r_levels[k] = section_oracle(level_sequence(r_filt, k)) is not None
    return TwistedReport(alpha_trivial, alpha_v_trivial, f_levels, r_levels)
