"""Sparse exact-rational linear algebra.

Every decision made by this package (cocycle triviality, section existence,
graded dimensions) reduces to solving linear systems over the rationals, so
all arithmetic here is exact: ``fractions.Fraction`` matrices, and int rows
over a scale (``_int_rows``) inside the one elimination core, ``Echelon``.
Matrices are stored as lists of sparse rows (``dict`` column -> coefficient);
elimination always pivots on the leftmost nonzero column so that echelon
forms, solution vectors and complements are reproducible across runs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence
from fractions import Fraction

Q = Fraction

Entry = int | str | Fraction


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
    if vec and (min(vec) < 0 or max(vec) >= dim):
        raise ValueError(f"index out of range for dimension {dim}")
    return vec


_ZERO = Q(0)  # the absent entry, shared


class Matrix:
    """Immutable-by-convention sparse matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list | None = None):
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
    def from_rows(cls, entries: Sequence[Sequence[Entry]], cols: int | None = None) -> "Matrix":
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
        return self.data[i].get(j, _ZERO)

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
        return Matrix(self.cols, self.rows, _columns(self.data, self.cols))

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

    def take(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        colmap = {c: k for k, c in enumerate(col_idx)}
        data = []
        for i in row_idx:
            data.append({colmap[c]: v for c, v in self.data[i].items() if c in colmap})
        return Matrix(len(row_idx), len(col_idx), data)

    def rank(self) -> int:
        ech = Echelon(self.cols)
        for r in _int_rows(self.data)[0]:
            ech.insert(r)
        return ech.rank


def _columns(rows: Sequence[Row], n: int) -> list:
    """The ``n`` columns of a matrix given as sparse rows, as sparse rows
    (its transpose), each in increasing row order."""
    cols = [dict() for _ in range(n)]
    for i, r in enumerate(rows):
        for c, v in r.items():
            cols[c][i] = v
    return cols


def _int_rows(rows: Sequence[Row]) -> tuple:
    """The one clearing helper: sparse rows of ints or Fractions as (int rows,
    scale), row i = int rows[i] / scale, zeros dropped, scale the lcm of the denominators."""
    scale = 1
    for r in rows:
        for v in r.values():
            if v.denominator != 1:
                scale = math.lcm(scale, v.denominator)
    if scale == 1:
        return [{c: v.numerator for c, v in r.items() if v} for r in rows], 1
    return [{c: v.numerator * (scale // v.denominator) for c, v in r.items() if v} for r in rows], scale


def _lowest_terms(rows: Sequence[dict], scale: int) -> tuple:
    """Int rows over a scale, divided by the gcd of the scale and every entry (lowest terms)."""
    g = scale
    for v in (v for r in rows for v in r.values()):
        if g == 1:
            return rows, scale
        g = math.gcd(g, v)
    return ([{c: v // g for c, v in r.items()} for r in rows], scale // g) if g > 1 else (rows, scale)


def _common_scale(*scales: int) -> tuple:
    """(S, [S // s for each scale s]): the lcm of positive scales and the lift onto it of each."""
    common = math.lcm(*scales)
    return common, [common // s for s in scales]


def _products_cancel(n: int, terms: Sequence[tuple]) -> bool:
    """Whether sum c * (A B) is zero over the terms (c, A, B): A and B are
    matrices given as int rows, A with n rows, and B = None stands for the
    identity.  Row by row in one accumulator, stopping at the first row that
    does not cancel; no product is built."""
    for r in range(n):
        acc: dict = {}
        for c, a, b in terms:
            if b is None:
                for k, v in a[r].items():
                    acc[k] = acc.get(k, 0) + c * v
                continue
            for k, v in a[r].items():
                v *= c
                for j, w in b[k].items():
                    acc[j] = acc.get(j, 0) + v * w
        if any(acc.values()):
            return False
    return True


def _int_mul(a: Sequence[dict], b: Sequence[dict]) -> list:
    """The product of two matrices given as int rows, as int rows with
    zeros dropped: row i is sum_k a[i][k] * b[k]."""
    out = []
    for r in a:
        acc: dict = {}
        for k, v in r.items():
            for c, w in b[k].items():
                acc[c] = acc.get(c, 0) + v * w
        out.append({c: x for c, x in acc.items() if x})
    return out


class Echelon:
    """Incrementally built row space in reduced echelon form, over int rows.

    ``insert`` takes sparse int rows with zeros dropped and clears nothing; a
    caller holding rationals clears them once with ``_int_rows`` (as
    ``Matrix.rank``, ``rref``, ``kernel_basis`` and ``Coordinates`` do), and a
    Fraction entry raises TypeError.  Pivots are the leftmost nonzero columns
    of the inserted (reduced) rows.  Each pivot row is primitive (content
    stripped), has a positive lead and is zero on every other pivot column:
    the canonical RREF row made primitive, so the rows depend on the row space
    alone.  A row is reduced in one pass over its pivot hits
    (``_reduce_int``), and a new pivot column is cleared from the rows that
    hold it, found through a column -> pivot rows index.  ``solution`` reads
    the free-variables-zero solution of a system off the right-hand-side
    column, and ``reduce`` clears a rational vector with ``_int_rows`` and
    returns its canonical representative modulo the row space, supported on
    the non-pivot columns only.  ``back_reduce`` divides each row by its lead,
    giving the rational RREF of the reference routines ``rref`` and
    ``kernel_basis``; it closes the echelon, and a later ``insert`` or
    ``reduce`` raises ValueError.  ``copy`` gives an echelon with the same
    rows that ``insert`` grows apart from this one.
    """

    __slots__ = ("ncols", "pivots", "_holders", "_reduced")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivots: dict = {}  # pivot column -> integer row; Fraction RREF row once closed
        # column -> pivot columns of the rows that gained it (a row may have lost it since)
        self._holders: defaultdict = defaultdict(list)
        self._reduced = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce_int(self, row: dict, hits) -> tuple:
        """(m row - sum_c f_c p_c, m) for the int row ``row`` and the pivot
        columns ``hits`` it holds: no entry is left in a pivot column.

        A pivot row p_c holds no other pivot column, so subtracting f_c p_c
        cancels the hit c and touches no other hit: one pass.  With a_c the
        lead of p_c and b_c the row's entry, m is the least positive integer
        making each f_c = m b_c / a_c integral, the lcm of a_c / gcd(a_c, b_c).
        """
        pivots = self.pivots
        m = 1
        for c in hits:
            a = pivots[c][c]
            m = math.lcm(m, a // math.gcd(a, row[c]))  # a Fraction entry raises TypeError
        out = {k: m * v for k, v in row.items()} if m != 1 else dict(row)
        for c in hits:
            p = pivots[c]
            f = m * row[c] // p[c]
            for k, v in p.items():
                w = out.get(k, 0) - f * v
                if w:
                    out[k] = w
                else:
                    del out[k]
        return out, m

    def reduce(self, vec: Row) -> Row:
        if self._reduced:
            raise ValueError("reduce after back_reduce: the echelon is closed")
        (row,), scale = _int_rows((vec,))
        hits = row.keys() & self.pivots.keys()
        row, m = self._reduce_int(row, hits) if hits else (row, 1)
        return {c: Fraction(v, scale * m) for c, v in row.items()}

    def insert(self, row: dict) -> int | None:
        """Add a sparse int row to the row space; return its pivot column if rank grew."""
        if self._reduced:
            raise ValueError("insert after back_reduce: the echelon is closed")
        pivots = self.pivots
        hits = row.keys() & pivots.keys()
        if hits:
            row = self._reduce_int(row, hits)[0]
        if not row:
            return None
        c = min(row)
        g = math.gcd(*row.values())
        if row[c] < 0:
            g = -g
        if g != 1:
            row = {k: v // g for k, v in row.items()}
        elif not hits:
            row = dict(row)  # the caller's
        holders = self._holders
        # c's own list is read only now: no later row holds a pivot column
        for k in row:
            if k != c:
                holders[k].append(c)
        a = row[c]
        for d in holders.pop(c, ()):
            p = pivots[d]
            b = p.get(c)
            if b is None:
                continue  # lost c after it was indexed
            g = math.gcd(a, b) if a != 1 else 1
            if g != a:
                p = {k: a // g * v for k, v in p.items()}
            f = b // g
            for k, v in row.items():
                w = p.get(k)
                if w is None:
                    p[k] = -f * v
                    holders[k].append(d)
                else:
                    w -= f * v
                    if w:
                        p[k] = w
                    else:
                        del p[k]
            if g != a or p[d] != 1:  # else the lead is still 1
                g = math.gcd(*p.values())
                if g != 1:
                    p = {k: v // g for k, v in p.items()}
            pivots[d] = p
        pivots[c] = row
        return c

    def copy(self) -> Echelon:
        """An echelon holding its own copies of the rows and the column
        index, so that ``insert`` grows it apart from this one."""
        out = Echelon.__new__(Echelon)
        out.ncols, out._reduced = self.ncols, self._reduced
        out.pivots = {c: dict(row) for c, row in self.pivots.items()}
        out._holders = defaultdict(list, {k: v[:] for k, v in self._holders.items()})
        return out

    def free_columns(self) -> list:
        return [c for c in range(self.ncols) if c not in self.pivots]

    def back_reduce(self) -> None:
        """Divide each pivot row by its lead: the canonical rational RREF."""
        if self._reduced:
            return
        pivots = self.pivots
        for c, row in pivots.items():
            lead = row[c]
            pivots[c] = {k: Fraction(v, lead) for k, v in row.items()}
        self._reduced = True

    def solution(self) -> dict | None:
        """Free-variables-zero solution of the system whose right-hand side
        is the last column, as a sparse dict; None when the system is
        inconsistent.  A pivot row holds no other pivot column, so
        x_c = row_c[bcol] / row_c[c]."""
        bcol = self.ncols - 1
        pivots = self.pivots
        if bcol in pivots:
            return None
        return {c: Fraction(row[bcol], row[c]) for c, row in sorted(pivots.items(), reverse=True) if bcol in row}


def rref(m: Matrix):
    """Reduced row echelon form and pivot columns (row space preserved)."""
    ech = Echelon(m.cols)
    for r in _int_rows(m.data)[0]:
        ech.insert(r)
    ech.back_reduce()
    pivots = sorted(ech.pivots)
    data = [dict(ech.pivots[c]) for c in pivots]
    while len(data) < m.rows:
        data.append({})
    return Matrix(m.rows, m.cols, data), pivots


def solve(rows: Iterable[Row], bcol: int) -> Row | None:
    """The free-variables-zero solution of the system ``rows`` as a sparse
    dict, or None when it is inconsistent.  Each row is a sparse int row
    over the columns 0..bcol, zeros dropped, the right-hand side in column
    ``bcol``; a caller holding rationals clears them first with
    ``_int_rows``.  Empty rows are skipped, an entry outside that range
    raises ValueError and a Fraction entry TypeError.  The rows go in
    shortest first; the reduced rows, and so the answer, are those of the
    RREF, a property of the row space alone, so the order cannot move it."""
    ech = Echelon(bcol + 1)
    for row in sorted((_in_range(row, bcol + 1) for row in rows), key=len):
        if row:
            ech.insert(row)
    return ech.solution()


def kernel_basis(a: Matrix) -> list:
    """Exact basis of the null space of ``a`` (empty for injective maps)."""
    ech = Echelon(a.cols)
    for r in _int_rows(a.data)[0]:
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


class Coordinates:
    """Coordinates over a list of sparse vectors ``v_j`` of a ``dim``-space.

    Each ``v_j`` goes into one echelon as the row (v_j, e_j), its tag e_j in
    column ``dim + j``, all rows times the one scale that clears them.
    Reducing (x, 0) leaves (0, -y) exactly when x = sum_j y_j v_j, so a call
    returns ``{j: y_j}`` (in increasing j), or None when x lies outside the
    span.  Dependent vectors are allowed; for independent ones the
    coordinates are unique.
    """

    __slots__ = ("dim", "rank", "_ech")

    def __init__(self, vectors: Sequence[Row], dim: int):
        self.dim = dim
        self._ech = Echelon(dim + len(vectors))
        self.rank = 0  # pivots below dim: the dimension of the span
        rows, scale = _int_rows([_in_range(vec, dim) for vec in vectors])
        for j, row in enumerate(rows):
            row[dim + j] = scale  # (v_j, e_j) times the clearing scale
            if self._ech.insert(row) < dim:
                self.rank += 1

    def __call__(self, x: Row) -> dict | None:
        red = self._ech.reduce(_in_range(x, self.dim))
        if any(c < self.dim for c in red):
            return None
        return {c - self.dim: -v for c, v in sorted(red.items())}
