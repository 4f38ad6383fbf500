"""Chevalley-Eilenberg cochains, the obstruction cocycles, and extensions.

The connecting cocycle c measures the failure of the chosen splitting
sigma: n -> g to be equivariant,

    c(a)(x) = sigma(a.x) - [i(a), sigma(x)]   in h,

and the obstruction cocycle a is c pushed into Hom(n (x) E, E) through the
E-action.  Triviality of the class is decided by one linear solve against
the degree-zero differential; a trivial class is equivalent (and converted)
to an action of the ambient generators on E extending the h-action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lie import (
    InclusionPair,
    LieAlgebra,
    LieModule,
    ModuleMap,
    ext_monomials,
    g_restriction_module,
    hom_module,
    quotient_module,
    sort_with_sign,
    tensor_module,
)
from .linalg import Echelon, Matrix, Q, _add_term, solve


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

    def is_zero(self) -> bool:
        return self.values.is_zero()


def cochain_from_vec(degree: int, module: LieModule, vec, n_monos: int) -> Cochain:
    dm = module.dim
    values = Matrix.zeros(dm, n_monos)
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    for idx, v in items:
        if v:
            values.data[idx % dm][idx // dm] = v
    return Cochain(degree, module, values)


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


def _hom_flat(phi: Matrix) -> list:
    """Flatten a hom matrix (target x source) into hom_module coordinates."""
    out = [Q(0)] * (phi.rows * phi.cols)
    for i, row in enumerate(phi.data):
        for j, v in row.items():
            out[i * phi.cols + j] = v
    return out


def connecting_cocycle(pair: InclusionPair) -> Cochain:
    """c in C^1(h, Hom(n, h)) with c(a)(x) = sigma(a.x) - [i(a), sigma(x)]."""
    from .lie import adjoint_module

    n_mod = quotient_module(pair)
    h_adj = adjoint_module(pair.h)
    coeff = hom_module(n_mod, h_adj)
    dn, dh = pair.dim_n, pair.dim_h
    cols = []
    for a in range(dh):
        phi = Matrix.zeros(dh, dn)
        for r in range(dn):
            br = pair.bracket_letters(dn + a, r)  # [i(a), sigma_r] over letters
            # sigma(a.x) cancels the n-part, leaving minus the h-part
            for w, v in br.items():
                if w >= dn:
                    phi.data[w - dn][r] = -v
        cols.append(_hom_flat(phi))
    values = Matrix.from_cols(cols, rows=coeff.dim)
    c = Cochain(1, coeff, values)
    d1 = ce_differential(pair.h, coeff, 1)
    if any(x for x in d1.apply(c.vec())):
        raise AssertionError("connecting cochain failed the cocycle identity")
    return c


def alpha_cocycle(pair: InclusionPair, module: LieModule) -> Cochain:
    """Obstruction cocycle a in C^1(h, Hom(n (x) E, E)): a(z)(x (x) v) = c(z)(x).v."""
    n_mod = quotient_module(pair)
    c = connecting_cocycle(pair)
    coeff = hom_module(tensor_module(n_mod, module), module)
    dn, dh, de = pair.dim_n, pair.dim_h, module.dim
    cols = []
    for z in range(dh):
        phi = Matrix.zeros(de, dn * de)
        for r in range(dn):
            hvec = {i: c.values.entry(i * dn + r, z) for i in range(dh)}
            hvec = {i: v for i, v in hvec.items() if v}
            act = module.act_vec(hvec)
            for i, row in enumerate(act.data):
                for j, v in row.items():
                    phi.data[i][r * de + j] = v
        cols.append(_hom_flat(phi))
    values = Matrix.from_cols(cols, rows=coeff.dim)
    a = Cochain(1, coeff, values)
    d1 = ce_differential(pair.h, coeff, 1)
    if any(x for x in d1.apply(a.vec())):
        raise AssertionError("obstruction cochain failed the cocycle identity")
    return a


def is_trivial(pair: InclusionPair, module: LieModule, cocycle: Optional[Cochain] = None) -> Optional[Cochain]:
    """A 0-cochain b with d(b) = a, or None when the class is nontrivial."""
    if cocycle is None:
        cocycle = alpha_cocycle(pair, module)
    coeff = cocycle.module
    d1 = ce_differential(pair.h, coeff, 1)
    avec = cocycle.vec()
    if any(x for x in d1.apply(avec)):
        raise NotACocycleError("cochain is not closed")
    d0 = ce_differential(pair.h, coeff, 0)
    target = [Q(0)] * d0.rows
    for idx, v in avec.items():
        target[idx] = v
    sol = solve(d0, target)
    if sol is None:
        return None
    return cochain_from_vec(0, coeff, sol, 1)


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

    def rho_vec(self, letters: dict) -> Matrix:
        out = Matrix.zeros(self.module.dim, self.module.dim)
        for u, c in letters.items():
            out = out + self.rho[u].scale(c)
        return out

    def verify(self) -> bool:
        pair, e = self.pair, self.module
        dn = pair.dim_n
        for a in range(pair.dim_h):
            if self.rho[dn + a] != e.action[a]:
                return False
            act_a = e.action[a]
            for u in range(pair.g.dim):
                lhs = self.rho_vec(pair.bracket_letters(dn + a, u))
                rhs = act_a.mul(self.rho[u]) - self.rho[u].mul(act_a)
                if lhs != rhs:
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
    rhs = []
    for a in range(dh):
        act = module.action[a]
        for r in range(dn):
            br = pair.bracket_letters(dn + a, r)
            hcomb = {w - dn: v for w, v in br.items() if w >= dn}
            const = module.act_vec(hcomb)
            npart = {w: v for w, v in br.items() if w < dn}
            for i in range(de):
                for j in range(de):
                    row = {}
                    for s, c in npart.items():
                        row[unk(s, i, j)] = row.get(unk(s, i, j), 0) + c
                    for k in range(de):
                        v = act.entry(i, k)
                        if v:
                            row[unk(r, k, j)] = row.get(unk(r, k, j), 0) - v
                        v = act.entry(k, j)
                        if v:
                            row[unk(r, i, k)] = row.get(unk(r, i, k), 0) + v
                    rows.append({k: v for k, v in row.items() if v})
                    rhs.append(-const.entry(i, j))
    system = Matrix(len(rows), nunk, rows)
    sol = solve(system, rhs)
    if sol is None:
        return None
    rho = []
    for r in range(dn):
        b = Matrix.zeros(de, de)
        for i in range(de):
            for j in range(de):
                v = sol[unk(r, i, j)]
                if v:
                    b.data[i][j] = v
        rho.append(b)
    for a in range(dh):
        rho.append(module.action[a])
    datum = ExtensionDatum(pair, module, tuple(rho))
    if not datum.verify():
        raise AssertionError("extension solver produced an invalid datum")
    return datum


@dataclass
class PushoutData:
    """Ambient presentation of the pushout: coordinates, relation span, maps."""

    module: LieModule  # Q with its induced action
    include: ModuleMap  # E -> Q
    project: ModuleMap  # Q -> n (x) E
    ambient_dim: int
    free: tuple  # ambient coordinates giving the Q basis (echelon complement)
    relations: list  # the spanning relation vectors
    span: Echelon


def pushout_data(pair: InclusionPair, module: LieModule) -> PushoutData:
    """The pushout Q of E <- h (x) E -> g (x) E, with the maps of
    0 -> E -> Q -> n (x) E -> 0.

    Q is (E + g (x) E) / span{(a.v, 0) - (0, i(a) (x) v)} with the induced
    h-action; coordinates are the echelon complement of the relation span.
    """
    e = module
    g_mod = g_restriction_module(pair)
    ge = tensor_module(g_mod, e)
    n_mod = quotient_module(pair)
    ne = tensor_module(n_mod, e)
    de, dge = e.dim, ge.dim
    ambient_dim = de + dge
    dn = pair.dim_n

    def ambient_action(a: int) -> Matrix:
        out = Matrix.zeros(ambient_dim, ambient_dim)
        for i, row in enumerate(e.action[a].data):
            for j, v in row.items():
                out.data[i][j] = v
        for i, row in enumerate(ge.action[a].data):
            for j, v in row.items():
                out.data[de + i][de + j] = v
        return out

    relations = []
    for a in range(pair.dim_h):
        for m in range(de):
            rel = {}
            for i in range(de):
                v = e.action[a].entry(i, m)
                if v:
                    rel[i] = v
            key = de + (dn + a) * de + m
            rel[key] = rel.get(key, 0) - 1
            relations.append({k: v for k, v in rel.items() if v})
    span = Echelon(ambient_dim)
    for rel in relations:
        span.insert(rel)
    acts = [ambient_action(a) for a in range(pair.dim_h)]
    for a in range(pair.dim_h):
        cols = acts[a].transpose()
        for rel in relations:
            img: dict = {}
            for c, v in rel.items():
                for i, w in cols.data[c].items():
                    img[i] = img.get(i, 0) + w * v
            img = {k: v for k, v in img.items() if v}
            if not span.contains(img):
                raise AssertionError("pushout relation span is not h-stable")
    free = span.free_columns()
    qdim = len(free)
    free_pos = {c: k for k, c in enumerate(free)}

    def project(vec: dict) -> dict:
        red = span.reduce(vec)
        return {free_pos[c]: v for c, v in red.items()}

    q_action = []
    for a in range(pair.dim_h):
        cols = acts[a].transpose()
        m = Matrix.zeros(qdim, qdim)
        for k, c in enumerate(free):
            for i, v in project(dict(cols.data[c])).items():
                m.data[i][k] = v
        q_action.append(m)
    q_mod = LieModule(pair.h, qdim, q_action)

    incl = Matrix.zeros(qdim, de)
    for m in range(de):
        for i, v in project({m: Q(1)}).items():
            incl.data[i][m] = v

    # n (x) E quotient map read off the ambient coordinates of the section
    proj = Matrix.zeros(ne.dim, qdim)
    for k, c in enumerate(free):
        if c >= de:
            u, m = divmod(c - de, de)
            if u < dn:
                proj.data[u * de + m][k] = Q(1)
    return PushoutData(
        q_mod,
        ModuleMap(e, q_mod, incl),
        ModuleMap(q_mod, ne, proj),
        ambient_dim,
        tuple(free),
        relations,
        span,
    )


def pushout_module(pair: InclusionPair, module: LieModule):
    data = pushout_data(pair, module)
    return data.module, data.include, data.project


def h1_dimension(h: LieAlgebra, module: LieModule) -> int:
    """dim H^1(h, M) = dim ker d^1 - rank d^0."""
    d0 = ce_differential(h, module, 0)
    d1 = ce_differential(h, module, 1)
    return (d1.cols - d1.rank()) - d0.rank()


def wedge_restriction_is_exact(pair: InclusionPair, cocycle: Optional[Cochain] = None) -> bool:
    """Whether the obstruction cocycle restricted along wedge^2 n -> n (x) n
    is a coboundary (the class factors through the symmetric square)."""
    from .lie import ext_power_module

    n_mod = quotient_module(pair)
    if cocycle is None:
        cocycle = alpha_cocycle(pair, n_mod)
    dn = pair.dim_n
    wedges = ext_monomials(dn, 2)
    if not wedges:
        return True
    incl = Matrix.zeros(dn * dn, len(wedges))
    for col, (i, j) in enumerate(wedges):
        incl.data[i * dn + j][col] = Q(1)
        incl.data[j * dn + i][col] = Q(-1)
    coeff = hom_module(ext_power_module(n_mod, 2), n_mod)
    cols = []
    for z in range(pair.dim_h):
        phi = Matrix.zeros(dn, dn * dn)
        for i in range(dn):
            for c in range(dn * dn):
                v = cocycle.values.entry(i * dn * dn + c, z)
                if v:
                    phi.data[i][c] = v
        cols.append(_hom_flat(phi.mul(incl)))
    restricted = Cochain(1, coeff, Matrix.from_cols(cols, rows=coeff.dim))
    d1 = ce_differential(pair.h, coeff, 1)
    if any(x for x in d1.apply(restricted.vec())):
        raise NotACocycleError("restriction of a cocycle failed to be closed")
    d0 = ce_differential(pair.h, coeff, 0)
    target = [Q(0)] * d0.rows
    for idx, v in restricted.vec().items():
        target[idx] = v
    return solve(d0, target) is not None
