"""Chevalley-Eilenberg cochains, the obstruction cocycles, and extensions.

The connecting cocycle c measures the failure of the chosen splitting
sigma: n -> g to be equivariant,

    c(a)(x) = sigma(a.x) - [i(a), sigma(x)]   in h,

and the obstruction cocycle a is c pushed into Hom(n (x) E, E) through the
E-action.  Triviality of the class is decided by one linear solve against
the degree-zero differential; a trivial class is equivalent (and converted)
to an action of the ambient generators on E extending the h-action.  Both
are built once per pair and module action (``obstruction``, ``extension``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .lie import (
    InclusionPair,
    LieAlgebra,
    LieModule,
    adjoint_module,
    bracket_law_holds,
    ext_monomials,
    hom_module,
    int_matrices,
    quotient_module,
    sort_with_sign,
    tensor_module,
)
from .linalg import Matrix, Q, _add_term, _int_row, solve


class NotACocycleError(ValueError):
    """Input cochain is not closed, so triviality is not a meaningful question."""


@dataclass
class Cochain:
    """p-cochain on h with values in ``module``: a matrix whose column at a
    strictly-increasing basis tuple of wedge-degree p is the value vector."""

    degree: int
    module: LieModule
    values: Matrix

    def vec(self) -> dict:
        out = {}
        dm = self.module.dim
        for m, row in enumerate(self.values.data):
            for t, v in row.items():
                out[t * dm + m] = v
        return out

    def hom_value(self, z: int, target_dim: int, source_dim: int) -> Matrix:
        """The value at the z-th basis element of a 1-cochain with values in
        a hom module, as a (target x source) matrix."""
        out = Matrix.zeros(target_dim, source_dim)
        for idx, row in enumerate(self.values.data):
            if z in row:
                out.data[idx // source_dim][idx % source_dim] = row[z]
        return out


def ce_differential(h: LieAlgebra, module: LieModule, p: int) -> Matrix:
    """Matrix of d: C^p(h, M) -> C^{p+1}(h, M) in the flat bases
    (tuple index major, module index minor)."""
    if p < 0:
        raise ValueError("negative cochain degree")
    src = ext_monomials(h.dim, p)
    dst = ext_monomials(h.dim, p + 1)
    src_index = {t: i for i, t in enumerate(src)}
    dm = module.dim
    d = Matrix.zeros(len(dst) * dm, len(src) * dm)

    def add_block(trow: int, scol: int, block: Matrix, sign: Fraction) -> None:
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
            for c, coeff in h.table[tup[i]][tup[j]].items():
                sorted_sign = sort_with_sign((c,) + rest)
                if sorted_sign is None:
                    continue
                mono, sgn = sorted_sign
                sign = Q((-1) ** (i + j)) * coeff * sgn
                add_block(tidx, src_index[mono], Matrix.identity(dm), sign)
    return d


def _hom_cochain(coeff: LieModule, phis: list) -> Cochain:
    """The 1-cochain z -> phis[z] with values in the hom module ``coeff``,
    each value a (target x source) matrix flattened at i * source + j."""
    values = Matrix.zeros(coeff.dim, len(phis))
    for z, phi in enumerate(phis):
        for i, row in enumerate(phi.data):
            for j, v in row.items():
                values.data[i * phi.cols + j][z] = v
    return Cochain(1, coeff, values)


def _closed(h: LieAlgebra, cochain: Cochain, error: Exception) -> Cochain:
    """``cochain``, after raising ``error`` if its differential is nonzero."""
    if ce_differential(h, cochain.module, cochain.degree).apply(cochain.vec()):
        raise error
    return cochain


def _h_part(pair: InclusionPair, a: int, r: int) -> dict:
    """The h-part of [i(a), sigma_r] over the h basis."""
    dn = pair.dim_n
    return {w - dn: v for w, v in pair.bracket_letters(dn + a, r).items() if w >= dn}


def connecting_cocycle(pair: InclusionPair) -> Cochain:
    """c in C^1(h, Hom(n, h)) with c(a)(x) = sigma(a.x) - [i(a), sigma(x)]."""
    coeff = hom_module(quotient_module(pair), adjoint_module(pair.h))
    dn, dh = pair.dim_n, pair.dim_h
    phis = []
    for a in range(dh):
        # sigma(a.x) cancels the n-part of [i(a), sigma_r], leaving minus the h-part
        cols = [{b: -v for b, v in _h_part(pair, a, r).items()} for r in range(dn)]
        phis.append(Matrix(dn, dh, cols).transpose())
    c = _hom_cochain(coeff, phis)
    return _closed(pair.h, c, AssertionError("connecting cochain failed the cocycle identity"))


def alpha_cocycle(pair: InclusionPair, module: LieModule) -> Cochain:
    """Obstruction cocycle a in C^1(h, Hom(n (x) E, E)): a(z)(x (x) v) = c(z)(x).v."""
    c = connecting_cocycle(pair)
    coeff = hom_module(tensor_module(quotient_module(pair), module), module)
    phis = []
    for z in range(pair.dim_h):
        phi = Matrix.zeros(module.dim, 0)
        for hvec in c.hom_value(z, pair.dim_h, pair.dim_n).transpose().data:  # c(z)(n_r) in h
            phi = phi.hstack(module.act_vec(hvec))
        phis.append(phi)
    a = _hom_cochain(coeff, phis)
    return _closed(pair.h, a, AssertionError("obstruction cochain failed the cocycle identity"))


def _primitive(h: LieAlgebra, cocycle: Cochain) -> Optional[Cochain]:
    """A 0-cochain b with d(b) = ``cocycle``, or None."""
    coeff = cocycle.module
    d = ce_differential(h, coeff, 0)
    rows = [dict(r) for r in d.data]
    for i, v in cocycle.vec().items():
        rows[i][d.cols] = v
    sol = solve(rows, d.cols)
    if sol is None:
        return None
    b = Matrix.zeros(coeff.dim, 1)
    for m, v in sol.items():
        b.data[m][0] = v
    return Cochain(0, coeff, b)


@dataclass
class Obstruction:
    """The obstruction cocycle ``a`` of one module and a 0-cochain b with
    d(b) = a, or None when the class is non-trivial."""

    cocycle: Cochain
    primitive: Optional[Cochain]


def _per_module(pair: InclusionPair, name: str, module: LieModule, build):
    """``build(pair, module)``, memoised in the pair's caches under ``name``
    and the module's action: modules with equal actions share one result."""
    cache = pair._caches.setdefault(name, {})
    key = module.key()
    if key not in cache:
        cache[key] = build(pair, module)
    return cache[key]


def _build_obstruction(pair: InclusionPair, module: LieModule) -> Obstruction:
    a = alpha_cocycle(pair, module)
    return Obstruction(a, _primitive(pair.h, a))


def obstruction(pair: InclusionPair, module: LieModule) -> Obstruction:
    """The obstruction class of ``module``, built once per pair and module action."""
    return _per_module(pair, "obstructions", module, _build_obstruction)


def is_trivial(pair: InclusionPair, module: LieModule, cocycle: Optional[Cochain] = None) -> Optional[Cochain]:
    """A 0-cochain b with d(b) = a, or None when the class is nontrivial.

    Without ``cocycle`` this is the memoised ``obstruction(pair, module)``;
    a given cochain is solved afresh, after NotACocycleError when it is not
    closed."""
    if cocycle is None:
        return obstruction(pair, module).primitive
    return _primitive(pair.h, _closed(pair.h, cocycle, NotACocycleError("cochain is not closed")))


@dataclass
class ExtensionDatum:
    """Action rho of the ambient generators on E extending the h-action.

    ``rho[u]`` acts for the adapted letter u (n-letters first, then the h
    generators); the two defining identities are rho(i(a)) = act_E(a) and
    rho([i(a), x]) = [act_E(a), rho(x)].
    """

    pair: InclusionPair
    module: LieModule
    rho: tuple
    # (columns, T): rho cleared once to int columns over one scale T, so that
    # column j of rho[u] is columns[u][j] / T; engine's t-maps run on these
    int_rho: tuple = field(init=False, compare=False, repr=False)
    # engine.t_map's image of each basis element (k, word, tensor-tuple)
    # under this datum; a fresh dict per datum, never copied by replace()
    t_images: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        cols, scale = int_matrices([m.transpose() for m in self.rho])
        self.int_rho = (cols, scale)

    def verify(self) -> bool:
        pair, e = self.pair, self.module
        dn = pair.dim_n
        mats, scale = int_matrices(self.rho)
        for a in range(pair.dim_h):
            if self.rho[dn + a] != e.action[a]:
                return False
            for u in range(pair.g.dim):
                combo, cscale = _int_row(pair.bracket_letters(dn + a, u))
                if not bracket_law_holds(mats, scale, dn + a, u, combo, cscale):
                    return False
        return True


def find_extension(pair: InclusionPair, module: LieModule) -> Optional[ExtensionDatum]:
    """Solve the linear equivariance system for rho, or return None.

    Unknowns are the matrices B_r = rho(sigma(n_r)); the h-letters act by the
    given module action.  One solution is returned (free variables zeroed);
    the choice is not unique and downstream splittings record which datum
    they used.
    """
    dn, dh, de = pair.dim_n, pair.dim_h, module.dim
    nunk = dn * de * de

    def unk(r: int, i: int, j: int) -> int:
        return (r * de + i) * de + j

    rows = []
    for a in range(dh):
        act = module.action[a]
        for r in range(dn):
            const = module.act_vec(_h_part(pair, a, r))
            npart = {w: v for w, v in pair.bracket_letters(dn + a, r).items() if w < dn}
            for i in range(de):
                for j in range(de):
                    row: dict = {}
                    for s, c in npart.items():
                        _add_term(row, unk(s, i, j), c)
                    for k in range(de):
                        _add_term(row, unk(r, k, j), -act.entry(i, k))
                        _add_term(row, unk(r, i, k), act.entry(k, j))
                    if const.entry(i, j):
                        row[nunk] = -const.entry(i, j)
                    rows.append(row)
    sol = solve(rows, nunk)
    if sol is None:
        return None
    rho = [Matrix.zeros(de, de) for _ in range(dn)]
    for c, v in sol.items():
        r, ij = divmod(c, de * de)
        rho[r].data[ij // de][ij % de] = v
    datum = ExtensionDatum(pair, module, tuple(rho) + module.action)
    if not datum.verify():
        raise AssertionError("extension solver produced an invalid datum")
    return datum


def extension(pair: InclusionPair, module: LieModule) -> Optional[ExtensionDatum]:
    """``find_extension(pair, module)``, solved once per pair and module action."""
    return _per_module(pair, "extensions", module, find_extension)


@dataclass
class PushoutData:
    """The pushout in E + n (x) E coordinates and its presenting relations."""

    module: LieModule  # Q: E on the first coordinates, then n (x) E
    free: tuple  # the ambient coordinates of E + g (x) E giving the Q basis
    relations: list  # the spanning relation vectors


def pushout_data(pair: InclusionPair, module: LieModule) -> PushoutData:
    """The pushout Q of E <- h (x) E -> g (x) E, the middle of
    0 -> E -> Q -> n (x) E -> 0.

    Q is (E + g (x) E) / span{(a.v, 0) - (0, i(a) (x) v)} with the induced
    h-action.  Each relation trades the coordinate i(a) (x) v for a.v in E,
    so E + n (x) E is a basis of Q and each action is the block matrix
    [[act_E(a), C_a], [0, act_{n (x) E}(a)]], column (r, v) of C_a being the
    h-part of [i(a), sigma_r] acting on v.
    """
    e = module
    de, dn = e.dim, pair.dim_n
    ne = tensor_module(quotient_module(pair), e)
    qdim = de + ne.dim
    q_action = []
    relations = []
    for a in range(pair.dim_h):
        rows = [dict(r) for r in e.action[a].data] + [{de + j: v for j, v in r.items()} for r in ne.action[a].data]
        for r in range(dn):
            for i, row in enumerate(e.act_vec(_h_part(pair, a, r)).data):
                rows[i].update((de + r * de + m, v) for m, v in row.items())
        q_action.append(Matrix(qdim, qdim, rows))
        for m in range(de):
            rel = e.action[a].apply({m: Q(1)})
            rel[de + (dn + a) * de + m] = Q(-1)
            relations.append(rel)
    return PushoutData(LieModule(pair.h, qdim, q_action), tuple(range(qdim)), relations)
