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

from .lie import (
    InclusionPair,
    LieAlgebra,
    LieModule,
    _letter_ints,
    adjoint_module,
    bracket_law_holds,
    ext_monomials,
    hom_module,
    int_matrices,
    quotient_module,
    sort_with_sign,
    tensor_module,
)
from .linalg import Matrix, Q, _add_term, _columns, _common_scale, _int_rows, solve
from .record import Record


class NotACocycleError(ValueError):
    """Input cochain is not closed, so triviality is not a meaningful question."""


class Cochain(Record):
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


def ce_differential(h: LieAlgebra, module: LieModule, p: int) -> tuple:
    """d: C^p(h, M) -> C^{p+1}(h, M) in the flat bases (tuple index major,
    module index minor), as int rows over the scale of M times that of h's table."""
    if p < 0:
        raise ValueError("negative cochain degree")
    table, tscale = h.int_table
    src_index = {t: i for i, t in enumerate(ext_monomials(h.dim, p))}
    dst = ext_monomials(h.dim, p + 1)
    dm = module.dim
    d = [dict() for _ in range(len(dst) * dm)]
    for tidx, tup in enumerate(dst):
        rows = d[tidx * dm:(tidx + 1) * dm]
        for i in range(p + 1):
            base = src_index[tup[:i] + tup[i + 1:]] * dm
            sign = -tscale if i % 2 else tscale
            for target, row in zip(rows, module.mats[tup[i]]):
                for j, v in row.items():
                    _add_term(target, base + j, sign * v)
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = tuple(x for k, x in enumerate(tup) if k not in (i, j))
            for c, coeff in table[tup[i]][tup[j]].items():
                sorted_sign = sort_with_sign((c,) + rest)
                if sorted_sign is None:
                    continue
                mono, sgn = sorted_sign
                sign = (-1) ** (i + j) * coeff * sgn * module.scale
                base = src_index[mono] * dm
                for m, target in enumerate(rows):
                    _add_term(target, base + m, sign)
    return d, module.scale * tscale


def _hom_cochain(coeff: LieModule, phis: list, cols: int) -> Cochain:
    """The 1-cochain z -> phis[z] with values in the hom module ``coeff``,
    each value given by its rows (target x ``cols``) and flattened at i * cols + j."""
    values = Matrix.zeros(coeff.dim, len(phis))
    for z, phi in enumerate(phis):
        for i, row in enumerate(phi):
            for j, v in row.items():
                values.data[i * cols + j][z] = v
    return Cochain(1, coeff, values)


def _closed(h: LieAlgebra, cochain: Cochain, error: Exception) -> Cochain:
    """``cochain``, after raising ``error`` if its differential is nonzero."""
    d, _ = ce_differential(h, cochain.module, cochain.degree)
    (vec,), _ = _int_rows((cochain.vec(),))
    if any(sum(v * vec[c] for c, v in row.items() if c in vec) for row in d):
        raise error
    return cochain


def _h_part(pair: InclusionPair, a: int, r: int) -> dict:
    """The h-part of [i(a), sigma_r] over the h basis, in ints over the letter scale D."""
    dn = pair.dim_n
    return {w - dn: v for w, v in _letter_ints(pair)[0][dn + a][r].items() if w >= dn}


def connecting_cocycle(pair: InclusionPair) -> Cochain:
    """c in C^1(h, Hom(n, h)) with c(a)(x) = sigma(a.x) - [i(a), sigma(x)]."""
    coeff = hom_module(quotient_module(pair), adjoint_module(pair.h))
    dn, dh, D = pair.dim_n, pair.dim_h, _letter_ints(pair)[1]
    phis = []
    for a in range(dh):
        # sigma(a.x) cancels the n-part of [i(a), sigma_r], leaving minus the h-part
        cols = [{b: Q(-v, D) for b, v in _h_part(pair, a, r).items()} for r in range(dn)]
        phis.append(Matrix(dn, dh, cols).transpose().data)
    c = _hom_cochain(coeff, phis, dn)
    return _closed(pair.h, c, AssertionError("connecting cochain failed the cocycle identity"))


def alpha_cocycle(pair: InclusionPair, module: LieModule) -> Cochain:
    """Obstruction cocycle a in C^1(h, Hom(n (x) E, E)): a(z)(x (x) v) = c(z)(x).v."""
    c = connecting_cocycle(pair)
    coeff = hom_module(tensor_module(quotient_module(pair), module), module)
    dn, dh, de = pair.dim_n, pair.dim_h, module.dim
    phis = []
    for z in range(dh):
        # c(z)(n_r) in h sits at rows b * dn + r of the values' column z
        hvecs, scale = _int_rows([{b: c.values.data[b * dn + r].get(z, 0) for b in range(dh)} for r in range(dn)])
        scale *= module.scale
        phi = [{} for _ in range(de)]
        for r, hvec in enumerate(hvecs):
            for i, row in enumerate(module.act_vec(hvec)):
                phi[i].update((r * de + j, Q(v, scale)) for j, v in row.items())
        phis.append(phi)
    a = _hom_cochain(coeff, phis, dn * de)
    return _closed(pair.h, a, AssertionError("obstruction cochain failed the cocycle identity"))


def _primitive(h: LieAlgebra, cocycle: Cochain) -> Cochain | None:
    """A 0-cochain b with d(b) = ``cocycle``, or None: (d / s) b = v / s_v solved as s_v d b = s v."""
    coeff = cocycle.module
    d, scale = ce_differential(h, coeff, 0)
    (vec,), vscale = _int_rows((cocycle.vec(),))
    bcol = coeff.dim
    rows = d if vscale == 1 else [{c: vscale * v for c, v in r.items()} for r in d]
    for i, v in vec.items():
        rows[i][bcol] = scale * v
    sol = solve(rows, bcol)
    if sol is None:
        return None
    b = Matrix.zeros(coeff.dim, 1)
    for m, v in sol.items():
        b.data[m][0] = v
    return Cochain(0, coeff, b)


class Obstruction(Record):
    """The obstruction cocycle ``a`` of one module and a 0-cochain b with
    d(b) = a, or None when the class is non-trivial."""

    cocycle: Cochain
    primitive: Cochain | None


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


def is_trivial(pair: InclusionPair, module: LieModule, cocycle: Cochain | None = None) -> Cochain | None:
    """A 0-cochain b with d(b) = a, or None when the class is nontrivial.

    Without ``cocycle`` this is the memoised ``obstruction(pair, module)``;
    a given cochain is solved afresh, after NotACocycleError when it is not
    closed."""
    if cocycle is None:
        return obstruction(pair, module).primitive
    return _primitive(pair.h, _closed(pair.h, cocycle, NotACocycleError("cochain is not closed")))


class ExtensionDatum(Record):
    """Action rho of the ambient generators on E extending the h-action.

    ``rho[u]`` acts for the adapted letter u (n-letters first, then the h
    generators); the two defining identities are rho(i(a)) = act_E(a) and
    rho([i(a), x]) = [act_E(a), rho(x)].
    """

    pair: InclusionPair
    module: LieModule
    rho: tuple

    def __init__(self, pair: InclusionPair, module: LieModule, rho: tuple):
        super().__init__(pair, module, rho)
        # (mats, T): rho cleared once to int rows over one scale T, so that
        # rho[u] is mats[u] / T; verify and engine.pbw_splitting_I read these
        self.int_rho = int_matrices(rho)

    def verify(self) -> bool:
        pair, e = self.pair, self.module
        dn, (ints, D) = pair.dim_n, _letter_ints(pair)
        mats, scale = self.int_rho
        for a in range(pair.dim_h):
            if self.rho[dn + a] != e.action[a]:
                return False
            for u in range(pair.g.dim):
                if not bracket_law_holds(mats, scale, dn + a, u, ints[dn + a][u], D):
                    return False
        return True


def find_extension(pair: InclusionPair, module: LieModule) -> ExtensionDatum | None:
    """Solve the linear equivariance system for rho, or return None.

    Unknowns are the matrices B_r = rho(sigma(n_r)); the h-letters act by the
    given module action.  One solution is returned (free variables zeroed);
    the choice is not unique, and ``extension`` memoises the one that the
    splittings and their report use.  Each equation is built in ints, times
    D s_E for [i(a), sigma_r] over the letter scale D.
    """
    (ints, D), dn, dh, de = _letter_ints(pair), pair.dim_n, pair.dim_h, module.dim
    nunk = dn * de * de

    def unk(r: int, i: int, j: int) -> int:
        return (r * de + i) * de + j

    rows = []
    for a in range(dh):
        act = module.mats[a]
        act_cols = _columns(act, de)
        for r in range(dn):
            npart = {w: module.scale * v for w, v in ints[dn + a][r].items() if w < dn}
            const = module.act_vec(_h_part(pair, a, r))
            for i in range(de):
                for j in range(de):
                    row: dict = {}
                    for s, c in npart.items():
                        _add_term(row, unk(s, i, j), c)
                    for k, v in act[i].items():
                        _add_term(row, unk(r, k, j), -D * v)
                    for k, v in act_cols[j].items():
                        _add_term(row, unk(r, i, k), D * v)
                    if j in const[i]:
                        row[nunk] = -const[i][j]
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


def extension(pair: InclusionPair, module: LieModule) -> ExtensionDatum | None:
    """``find_extension(pair, module)``, solved once per pair and module action."""
    return _per_module(pair, "extensions", module, find_extension)


class PushoutData(Record):
    """The pushout in E + n (x) E coordinates and its presenting relations."""

    module: LieModule  # Q: E on the first coordinates, then n (x) E
    relations: list  # the spanning relation vectors


def pushout_data(pair: InclusionPair, module: LieModule) -> PushoutData:
    """The pushout Q of E <- h (x) E -> g (x) E, the middle of
    0 -> E -> Q -> n (x) E -> 0.

    Q is (E + g (x) E) / span{(a.v, 0) - (0, i(a) (x) v)} with the induced
    h-action.  Each relation trades the coordinate i(a) (x) v for a.v in E,
    so E + n (x) E is a basis of Q and each action is the block matrix
    [[act_E(a), C_a], [0, act_{n (x) E}(a)]], column (r, v) of C_a being the
    h-part of [i(a), sigma_r] acting on v (all in ints; each relation times s_E).
    """
    e = module
    de, dn, D = e.dim, pair.dim_n, _letter_ints(pair)[1]
    ne = tensor_module(quotient_module(pair), e)
    qdim = de + ne.dim
    common, (fe, fne) = _common_scale(e.scale, ne.scale)
    q_action = []
    relations = []
    for a in range(pair.dim_h):
        rows = [{c: D * fe * v for c, v in r.items()} for r in e.mats[a]]
        rows += [{de + j: D * fne * v for j, v in r.items()} for r in ne.mats[a]]
        for r in range(dn):
            for i, row in enumerate(e.act_vec(_h_part(pair, a, r))):
                rows[i].update((de + r * de + m, fe * v) for m, v in row.items())
        q_action.append(rows)
        for m in range(de):
            rel = {i: row[m] for i, row in enumerate(e.mats[a]) if m in row}
            rel[de + (dn + a) * de + m] = -e.scale
            relations.append(rel)
    return PushoutData(LieModule.from_ints(pair.h, qdim, q_action, D * common), relations)
