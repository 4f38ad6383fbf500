"""Sparse exact-rational linear algebra.

Every decision made by this package (cocycle triviality, section existence,
graded dimensions) reduces to solving linear systems over the rationals, so
all arithmetic here is exact ``fractions.Fraction`` arithmetic.  Matrices are
stored as lists of sparse rows (``dict`` column -> coefficient); elimination
always pivots on the leftmost nonzero column so that echelon forms, solution
vectors and complements are reproducible across runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

Q = Fraction

Entry = Union[int, str, Fraction]


def qf(x: Entry) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


Row = dict  # sparse row: column index -> nonzero Fraction


def _clean(row: Row) -> Row:
    return {c: v for c, v in row.items() if v}


def _add_term(acc: dict, key, coeff: Fraction) -> None:
    """acc[key] += coeff, dropping the key when the sum is zero."""
    w = acc.get(key, 0) + coeff
    if w:
        acc[key] = w
    else:
        acc.pop(key, None)


def _in_range(vec: Row, dim: int) -> Row:
    if any(not 0 <= c < dim for c in vec):
        raise ValueError(f"index out of range for dimension {dim}")
    return vec


def _axpy(dst: Row, coeff: Fraction, src: Row) -> None:
    """dst += coeff * src, dropping zeros."""
    for c, v in src.items():
        w = dst.get(c, 0) + coeff * v
        if w:
            dst[c] = w
        else:
            dst.pop(c, None)


class Matrix:
    """Immutable-by-convention sparse matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[list] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [dict() for _ in range(rows)]
        if len(data) != rows:
            raise ValueError("row count mismatch")
        self.data = data

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Entry]], cols: Optional[int] = None) -> "Matrix":
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        data = []
        for r in entries:
            if len(r) != cols:
                raise ValueError("ragged rows")
            data.append({j: qf(v) for j, v in enumerate(r) if qf(v)})
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [{i: Q(1)} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    # -- inspection --------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i].get(j, Q(0))

    def is_zero(self) -> bool:
        return all(not r for r in self.data)

    def nnz(self) -> int:
        return sum(len(r) for r in self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(_clean(a) == _clean(b) for a, b in zip(self.data, other.data))
        )

    def __repr__(self) -> str:
        if self.rows * self.cols > 64:
            return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz()})"
        body = "; ".join(
            " ".join(str(self.entry(i, j)) for j in range(self.cols)) for i in range(self.rows)
        )
        return f"Matrix[{body}]"

    # -- arithmetic ---------------------------------------------------------

    def transpose(self) -> "Matrix":
        data = [dict() for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for c, v in r.items():
                data[c][i] = v
        return Matrix(self.cols, self.rows, data)

    def scale(self, coeff: Entry) -> "Matrix":
        coeff = qf(coeff)
        if not coeff:
            return Matrix.zeros(self.rows, self.cols)
        return Matrix(self.rows, self.cols, [{c: coeff * v for c, v in r.items()} for r in self.data])

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        data = [dict(r) for r in self.data]
        for i, r in enumerate(other.data):
            _axpy(data[i], Q(1), r)
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        data = [dict(r) for r in self.data]
        for i, r in enumerate(other.data):
            _axpy(data[i], Q(-1), r)
        return Matrix(self.rows, self.cols, data)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        data = [dict() for _ in range(self.rows)]
        for i, r in enumerate(self.data):
            acc = data[i]
            for k, v in r.items():
                _axpy(acc, v, other.data[k])
        return Matrix(self.rows, other.cols, data)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def apply(self, vec: Row) -> Row:
        """Matrix times a sparse column vector, as a sparse dict."""
        out = {}
        for i, r in enumerate(self.data):
            small, big = (r, vec) if len(r) <= len(vec) else (vec, r)
            s = 0
            for c, v in small.items():
                if c in big:
                    s += v * big[c]
            if s:
                out[i] = s
        return out

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        data = []
        for i in range(self.rows):
            r = dict(self.data[i])
            for c, v in other.data[i].items():
                r[c + self.cols] = v
            data.append(r)
        return Matrix(self.rows, self.cols + other.cols, data)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return Matrix(self.rows + other.rows, self.cols, [dict(r) for r in self.data] + [dict(r) for r in other.data])

    def take(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        colmap = {c: k for k, c in enumerate(col_idx)}
        data = []
        for i in row_idx:
            data.append({colmap[c]: v for c, v in self.data[i].items() if c in colmap})
        return Matrix(len(row_idx), len(col_idx), data)

    def rank(self) -> int:
        ech = Echelon(self.cols)
        for r in self.data:
            ech.insert(r)
        return ech.rank


def _int_row(vec: Row):
    """Clear denominators: return (integer row, positive scale) with
    true value = row / scale, zeros dropped.  Entries are ints or Fractions;
    a row of ints comes back unscaled."""
    scale = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            scale = math.lcm(scale, v.denominator)
    row = {}
    for c, v in vec.items():
        w = v * scale if isinstance(v, int) else v.numerator * (scale // v.denominator)
        if w:
            row[c] = w
    return row, scale


def _strip_content(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class Echelon:
    """Incrementally built row space in echelon form.

    Pivots are the leftmost nonzero columns of the inserted (reduced) rows.
    Rows are kept as content-stripped integer vectors and elimination uses
    exact cross-multiplication; each pivot row is zero left of its pivot
    column.  ``solution`` reads the free-variables-zero solution of a system
    straight from these rows by back-substitution.  ``reduce`` returns the
    canonical representative of a vector modulo the row space, supported on
    the non-pivot columns only.  The canonical rational RREF (pivot entries
    one) is built only on request, by ``back_reduce``, for the reference
    routines ``rref`` and ``kernel_basis``; it closes the echelon, and a
    later ``insert`` or ``reduce`` raises ValueError.
    """

    __slots__ = ("ncols", "pivots", "_reduced")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict = {}  # pivot column -> integer row; Fraction RREF row once closed
        self._reduced = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce_int(self, row: dict, scale: int, strip: bool):
        pivots = self.pivots
        while True:
            hit = -1
            for c in row:
                if c in pivots and (hit < 0 or c < hit):
                    hit = c
            if hit < 0:
                return row, scale
            p = pivots[hit]
            a = p[hit]
            b = row[hit]
            new = {}
            for c, v in row.items():
                if c != hit:
                    new[c] = a * v
            for c, v in p.items():
                if c == hit:
                    continue
                w = new.get(c, 0) - b * v
                if w:
                    new[c] = w
                elif c in new:
                    del new[c]
            row = new
            if strip:
                row = _strip_content(row)
            else:
                scale *= a
                g = 0
                for v in row.values():
                    g = math.gcd(g, v)
                    if g == 1:
                        break
                g = math.gcd(g, scale)
                if g > 1:
                    scale //= g
                    row = {c: v // g for c, v in row.items()}
        # unreachable

    def reduce(self, vec: Row) -> Row:
        if self._reduced:
            raise ValueError("reduce after back_reduce: the echelon is closed")
        row, scale = _int_row(vec)
        row, scale = self._reduce_int(row, scale, strip=False)
        if scale == 1:
            return {c: Fraction(v) for c, v in row.items()}
        return {c: Fraction(v, scale) for c, v in row.items()}

    def insert(self, vec: Row) -> Optional[int]:
        """Add a vector to the row space; return its pivot column if rank grew."""
        if self._reduced:
            raise ValueError("insert after back_reduce: the echelon is closed")
        row, _ = _int_row(vec)
        row = _strip_content(row)
        row, _ = self._reduce_int(row, 1, strip=True)
        if not row:
            return None
        c = min(row)
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        self.pivots[c] = row
        return c

    def contains(self, vec: Row) -> bool:
        return not self.reduce(vec)

    def free_columns(self) -> list:
        return [c for c in range(self.ncols) if c not in self.pivots]

    def back_reduce(self) -> None:
        """Inter-reduce pivot rows so they form the canonical RREF.

        Rows are finished right to left: a row holds no pivot column left of
        its own, so it is final once the rows of the pivot columns it holds
        have been subtracted, and those are finished before it.
        """
        if self._reduced:
            return
        pivots = self.pivots
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            lead = Fraction(row[c])
            row = {k: Fraction(v) / lead for k, v in row.items()}
            for k in [k for k in row if k != c and k in pivots]:
                _axpy(row, -row[k], pivots[k])
            pivots[c] = row
        self._reduced = True

    def solution(self, bcol: int) -> Optional[dict]:
        """Free-variables-zero solution of the system with right-hand side in
        column ``bcol``, the last column, as a sparse dict; None when the
        system is inconsistent.

        Back-substitution over the pivots in descending column order:
        x_c = (row_c[bcol] - sum_{j > c} row_c[j] x_j) / row_c[c].
        """
        if bcol != self.ncols - 1:
            raise ValueError("the right-hand side must be the last column")
        if bcol in self.pivots:
            return None
        x: dict = {}
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            s = row.get(bcol, 0)
            for j, v in row.items():
                if j in x:
                    s -= v * x[j]
            if s:
                x[c] = s / Fraction(row[c])
        return x


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns (row space preserved)."""
    ech = Echelon(m.cols)
    for r in m.data:
        ech.insert(r)
    ech.back_reduce()
    pivots = sorted(ech.pivots)
    data = [dict(ech.pivots[c]) for c in pivots]
    while len(data) < m.rows:
        data.append({})
    return Matrix(m.rows, m.cols, data), pivots


def solve(a: Matrix, b: Row) -> Optional[Row]:
    """Some exact solution of ``a x = b`` as a sparse dict, or None when
    inconsistent; an index of ``b`` outside ``a.rows`` raises ValueError.

    Deterministic choice: the free (non-pivot) variables are set to zero.
    """
    _in_range(b, a.rows)
    bcol = a.cols
    ech = Echelon(a.cols + 1)
    for i, r in enumerate(a.data):
        row = dict(r)
        if i in b:
            row[bcol] = b[i]
        ech.insert(row)
    return ech.solution(bcol)


def kernel_basis(a: Matrix) -> list:
    """Exact basis of the null space of ``a`` (empty for injective maps)."""
    ech = Echelon(a.cols)
    for r in a.data:
        ech.insert(r)
    ech.back_reduce()
    basis = []
    for f in ech.free_columns():
        v = [Q(0)] * a.cols
        v[f] = Q(1)
        for c, row in ech.pivots.items():
            if f in row:
                v[c] = -row[f]
        basis.append(v)
    return basis


def subspace_intersection(us: Sequence[Row], vs: Sequence[Row], dim: int) -> list:
    """Basis of span(us) intersected with span(vs), as sparse rows.

    Zassenhaus: the rows (u, u) and (v, 0) of one echelon in 2 * dim columns;
    the rows that pivot past ``dim`` are (0, w), and their w span the
    intersection.
    """
    ech = Echelon(2 * dim)
    for vecs, tagged in ((us, True), (vs, False)):
        for vec in vecs:
            row = dict(_in_range(vec, dim))
            if tagged:
                row.update((dim + c, v) for c, v in vec.items())
            ech.insert(row)
    return [{c - dim: Q(v) for c, v in ech.pivots[p].items()} for p in sorted(ech.pivots) if p >= dim]


def tensor_map(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product: (f (x) g)(u (x) v) = f(u) (x) g(v) in lex tensor bases."""
    data = [dict() for _ in range(f.rows * g.rows)]
    for i, fr in enumerate(f.data):
        for k, gr in enumerate(g.data):
            target = data[i * g.rows + k]
            for j, fv in fr.items():
                base = j * g.cols
                for l, gv in gr.items():
                    target[base + l] = fv * gv
    return Matrix(f.rows * g.rows, f.cols * g.cols, data)


class Coordinates:
    """Coordinates over a list of sparse vectors ``v_j`` of a ``dim``-space.

    Each ``v_j`` goes into one echelon as the row (v_j, e_j), its tag e_j in
    column ``dim + j``.  Reducing (x, 0) leaves (0, -y) exactly when
    x = sum_j y_j v_j, so a call returns ``{j: y_j}`` (in increasing j), or
    None when x lies outside the span.  Dependent vectors are allowed; for
    independent ones the coordinates are unique.
    """

    __slots__ = ("dim", "rank", "_ech")

    def __init__(self, vectors: Sequence[Row], dim: int):
        self.dim = dim
        self._ech = Echelon(dim + len(vectors))
        self.rank = 0  # pivots below dim: the dimension of the span
        for j, vec in enumerate(vectors):
            row = dict(_in_range(vec, dim))
            row[dim + j] = 1
            if self._ech.insert(row) < dim:
                self.rank += 1

    def __call__(self, x: Row) -> Optional[dict]:
        red = self._ech.reduce(_in_range(x, self.dim))
        if any(c < self.dim for c in red):
            return None
        return {c - self.dim: -v for c, v in sorted(red.items())}
