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

import heapq
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

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
    if vec and (min(vec) < 0 or max(vec) >= dim):
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


_ZERO = Q(0)  # the absent entry, shared


class Matrix:
    """Immutable-by-convention sparse matrix over the rationals (or ints, as a module's int form)."""

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
        data = [dict() for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for c, v in r.items():
                data[c][i] = v
        return Matrix(self.cols, self.rows, data)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        data = [dict(r) for r in self.data]
        for acc, r in zip(data, other.data):
            for c, v in r.items():
                w = op(acc.get(c, 0), v)
                if w:
                    acc[c] = w
                else:
                    acc.pop(c, None)
        return Matrix(self.rows, self.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

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


def combination(mats: Sequence[Matrix], coeffs: Row, dim: int) -> Matrix:
    """sum_i coeffs[i] * mats[i] for square matrices of size ``dim``,
    accumulated into one matrix in a single pass."""
    data = [dict() for _ in range(dim)]
    for i, c in coeffs.items():
        for acc, row in zip(data, mats[i].data):
            _axpy(acc, c, row)
    return Matrix(dim, dim, data)


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


def _same_values(x: dict, sx: int, y: dict, sy: int) -> bool:
    """Whether the int rows x / sx and y / sy are equal (zeros dropped)."""
    return x.keys() == y.keys() and all(sy * v == sx * y[c] for c, v in x.items())


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


def _strip_content(row: dict) -> dict:
    """An int row divided by the gcd of its entries; a Fraction entry raises TypeError."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


class Echelon:
    """Incrementally built row space in echelon form, over int rows.

    ``insert`` takes sparse int rows with zeros dropped and clears nothing; a
    caller holding rationals clears them once with ``_int_rows`` (as
    ``Matrix.rank``, ``rref``, ``kernel_basis`` and ``Coordinates`` do), and a Fraction entry raises TypeError.  Pivots
    are the leftmost nonzero columns of the inserted (reduced) rows; each
    pivot row is kept primitive (content stripped) with a positive lead, and
    is zero left of its pivot column.  Elimination is fraction-free (see
    ``_reduce_int``).  ``solution`` reads the free-variables-zero solution of
    a system straight from these rows by back-substitution.  ``reduce``
    clears a rational vector with ``_int_rows`` and returns its canonical
    representative modulo the row space, supported on the non-pivot columns
    only.  The canonical rational RREF (pivot entries one) is built only on
    request, by ``back_reduce``, for the reference routines ``rref`` and
    ``kernel_basis``; it closes the echelon, and a later ``insert`` or
    ``reduce`` raises ValueError.
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
        """The int row ``row`` / ``scale`` reduced by the pivot rows, as a new
        (row, scale) with no entry in a pivot column.

        The row's pivot hits wait in a heap and the smallest is taken first.
        A step at hit c, with pivot row p of lead a > 0 and the row's entry b,
        forms (a/g) row - (b/g) p, g = gcd(a, b), which cancels c.  p is zero
        left of c, so each pivot column the step fills, or fills again after
        an earlier step cancelled it, lies right of c and is pushed; a popped
        column the row no longer holds is skipped.  Only a step with
        a/g != 1 scales the row; its content is then stripped (``strip``) or
        divided out with ``scale``.
        """
        pivots = self.pivots
        row = dict(row)
        hits = [c for c in row if c in pivots]
        heapq.heapify(hits)
        while hits:
            c = heapq.heappop(hits)
            b = row.get(c)
            if b is None:
                continue  # cancelled after it was pushed
            p = pivots[c]
            a = p[c]
            g = math.gcd(a, b)
            m, f = a // g, b // g
            if m != 1:
                row = {k: m * v for k, v in row.items()}
            for k, v in p.items():
                w = row.get(k)
                if w is None:
                    row[k] = -f * v
                    if k in pivots:
                        heapq.heappush(hits, k)
                else:
                    w -= f * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
            if m == 1:
                continue
            if strip:
                row = _strip_content(row)
            else:
                scale *= m
                g = math.gcd(scale, *row.values())
                if g > 1:
                    scale //= g
                    row = {k: v // g for k, v in row.items()}
        return row, scale

    def reduce(self, vec: Row) -> Row:
        if self._reduced:
            raise ValueError("reduce after back_reduce: the echelon is closed")
        (row,), scale = _int_rows((vec,))
        row, scale = self._reduce_int(row, scale, strip=False)
        if scale == 1:
            return {c: Fraction(v) for c, v in row.items()}
        return {c: Fraction(v, scale) for c, v in row.items()}

    def insert(self, row: dict) -> Optional[int]:
        """Add a sparse int row to the row space; return its pivot column if rank grew."""
        if self._reduced:
            raise ValueError("insert after back_reduce: the echelon is closed")
        row = _strip_content(self._reduce_int(row, 1, strip=True)[0])
        if not row:
            return None
        c = min(row)
        if row[c] < 0:
            row = {k: -v for k, v in row.items()}
        self.pivots[c] = row
        return c

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

    def solution(self) -> Optional[dict]:
        """Free-variables-zero solution of the system whose right-hand side
        is the last column, as a sparse dict; None when the system is
        inconsistent.

        Back-substitution over the pivots in descending column order:
        x_c = (row_c[bcol] - sum_{j > c} row_c[j] x_j) / row_c[c].
        """
        bcol = self.ncols - 1
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
    for r in _int_rows(m.data)[0]:
        ech.insert(r)
    ech.back_reduce()
    pivots = sorted(ech.pivots)
    data = [dict(ech.pivots[c]) for c in pivots]
    while len(data) < m.rows:
        data.append({})
    return Matrix(m.rows, m.cols, data), pivots


def solve(rows: Iterable[Row], bcol: int) -> Optional[Row]:
    """The free-variables-zero solution of the system ``rows`` as a sparse
    dict, or None when it is inconsistent.  Each row is a sparse int row
    over the columns 0..bcol, zeros dropped, the right-hand side in column
    ``bcol``; a caller holding rationals clears them first with
    ``_int_rows``.  Empty rows are skipped, an entry outside that range
    raises ValueError and a Fraction entry TypeError.  Rows of
    at most two entries go in as they arrive, the longer ones shortest
    first; with leftmost pivoting the pivot set is the RREF's, a property of
    the row space alone, so the order cannot move the answer."""
    ech = Echelon(bcol + 1)
    long_rows = []
    for row in rows:
        if len(_in_range(row, bcol + 1)) > 2:
            long_rows.append(row)
        elif row:
            ech.insert(row)
    for row in sorted(long_rows, key=len):
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

    def __call__(self, x: Row) -> Optional[dict]:
        red = self._ech.reduce(_in_range(x, self.dim))
        if any(c < self.dim for c in red):
            return None
        return {c - self.dim: -v for c, v in sorted(red.items())}
