"""Declarative problem files: a JSON document describing g, the subalgebra,
optional coefficient modules, and settings.

Rational coefficients are written as strings "p/q" (or plain integers) so
that no parser ever sees a float.  The exact grammar is documented in the
repository README; ``serialize_problem(parse_problem(text))`` re-parses to an
equal problem.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .lie import LieAlgebra, LieModule, adjoint_module, make_pair, quotient_module, trivial_module
from .linalg import Matrix, _add_term, qf
from .record import Record


class ProblemError(ValueError):
    """Invalid problem input, with a path into the document."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


def _rational(value, where: str) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, bool) or isinstance(value, float):
        raise ProblemError(where, f"coefficients must be integers or 'p/q' strings, got {value!r}")
    try:
        if type(value) is str:
            # "-?digits" and "-?digits/digits" skip Fraction's string parser
            num, slash, den = value.partition("/")
            if value.isascii() and num.removeprefix("-").isdigit() and (not slash or den.isdigit()):
                return Fraction(int(num), int(den or 1))
        return qf(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ProblemError(where, f"bad rational {value!r}: {exc}") from None


class ProblemFile(Record):
    name: str
    dim: int
    labels: tuple
    brackets: list  # canonical entries (i, j, ((k, Fraction), ...)) with i < j
    h_indices: tuple | None  # either indices ...
    h_embedding: tuple | None  # ... or columns of rationals
    complement: tuple | None
    modules: dict  # name -> (dim, tuple of row-major action matrices)
    settings: dict

    # -- builders -----------------------------------------------------------

    def algebra(self) -> LieAlgebra:
        pairs = [(i, j, dict(coeffs)) for (i, j, coeffs) in self.brackets]
        return LieAlgebra.from_pairs(self.dim, pairs, labels=self.labels)

    def pair(self):
        """A new inclusion pair, its caches empty.  An embedding that is not
        injective or not closed under the bracket, or a complement that does
        not complete it to a basis, is an input error at ``h``; an n-label
        that is the witness name ``i(<h label>)`` of an h generator is one at
        ``g.labels``."""
        alg = self.algebra()
        if self.h_indices is not None:
            emb = list(self.h_indices)
        else:
            emb = [list(col) for col in self.h_embedding]
        try:
            pair = make_pair(alg, emb, complement=self.complement)
        except ValueError as exc:
            raise ProblemError("h", str(exc)) from None
        clash = set(pair.n_labels).intersection(f"i({l})" for l in pair.h.labels)
        if clash:
            raise ProblemError("g.labels", f"the n-label {min(clash)!r} is also the witness name of an h generator")
        return pair

    def module(self, pair, name: str) -> LieModule:
        if name == "trivial":
            return trivial_module(pair.h)
        if name == "n":
            return quotient_module(pair)
        if name == "adjoint":
            return adjoint_module(pair.h)
        if name not in self.modules:
            raise ProblemError(f"modules.{name}", "unknown module name")
        dim, mats = self.modules[name]
        if len(mats) != pair.dim_h:
            raise ProblemError(f"modules.{name}.action", f"need one matrix per h basis element, {pair.dim_h}")
        action = [Matrix.from_rows(rows, cols=dim) for rows in mats]
        mod = LieModule(pair.h, dim, action)
        bad = mod.compatibility_defects()
        if bad:
            raise ProblemError(f"modules.{name}", f"action violates bracket compatibility at {bad}")
        return mod

    def module_dim(self, name: str) -> int | None:
        """The dimension of ``module(pair, name)``, read without building
        either; None for a name that ``module`` rejects."""
        dim_h = len(self.h_indices if self.h_indices is not None else self.h_embedding)
        builtin = {"trivial": 1, "n": self.dim - dim_h, "adjoint": dim_h}
        if name in builtin:
            return builtin[name]
        return self.modules[name][0] if name in self.modules else None

    @property
    def expect_invalid(self) -> bool:
        return bool(self.settings.get("expect_invalid", False))

    def to_dict(self) -> dict:
        g = {
            "dim": self.dim,
            "labels": list(self.labels),
            "brackets": [
                [i, j, [[k, str(c)] for k, c in coeffs]] for (i, j, coeffs) in self.brackets
            ],
        }
        if self.h_indices is not None:
            h = {"indices": list(self.h_indices)}
        else:
            h = {"embedding": [[str(x) for x in col] for col in self.h_embedding]}
        if self.complement is not None:
            h["complement"] = list(self.complement)
        out = {"name": self.name, "g": g, "h": h}
        if self.modules:
            out["modules"] = {
                name: {
                    "dim": dim,
                    "action": [[[str(x) for x in row] for row in mat] for mat in mats],
                }
                for name, (dim, mats) in self.modules.items()
            }
        if self.settings:
            out["settings"] = self.settings
        return out


def serialize_problem(pf: ProblemFile) -> str:
    return json.dumps(pf.to_dict(), indent=2)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``false`` load as bools, which isinstance counts as ints."""
    return type(value) is int


def _expect(doc: dict, key: str, where: str, types, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise ProblemError(where, f"missing required field '{key}'")
        return default
    value = doc[key]
    if not (_is_int(value) if types is int else isinstance(value, types)):
        raise ProblemError(f"{where}.{key}", f"expected {types}, got {type(value).__name__}")
    return value


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate the text of a problem document; the embedding is
    checked where ``ProblemFile.pair`` builds the pair."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from None
    if not isinstance(doc, dict):
        raise ProblemError("document", "top level must be an object")
    name = _expect(doc, "name", "document", str)
    g = _expect(doc, "g", "document", dict)
    dim = _expect(g, "dim", "g", int)
    if dim < 0:
        raise ProblemError("g.dim", "dimension must be nonnegative")
    labels = _expect(g, "labels", "g", list, required=False)
    if labels is None:
        labels = [f"x{i}" for i in range(dim)]
    if len(labels) != dim or not all(isinstance(l, str) for l in labels):
        raise ProblemError("g.labels", f"need {dim} string labels")
    if len(set(labels)) != dim:
        raise ProblemError("g.labels", "labels must be distinct")
    raw_brackets = _expect(g, "brackets", "g", list, required=False, default=[])
    table: dict = {}
    for pos, entry in enumerate(raw_brackets):
        where = f"g.brackets[{pos}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ProblemError(where, "entry must be [i, j, [[k, coeff], ...]]")
        i, j, coeffs = entry
        if not (_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim):
            raise ProblemError(where, f"indices must lie in [0, {dim})")
        if i == j:
            raise ProblemError(where, "bracket of an element with itself must be omitted (it is zero)")
        if not isinstance(coeffs, list):
            raise ProblemError(where, "third component must be a list of [k, coeff]")
        vec: dict = {}
        for term in coeffs:
            if not (isinstance(term, list) and len(term) == 2 and _is_int(term[0])):
                raise ProblemError(where, "terms must be [k, coeff]")
            k, c = term
            if not 0 <= k < dim:
                raise ProblemError(where, f"target index {k} out of range")
            _add_term(vec, k, _rational(c, where))  # a term summing to zero is dropped
        if (i, j) in table or (j, i) in table:
            prev = table.get((i, j))
            if prev is None:
                prev = {k: -v for k, v in table[(j, i)].items()}
            if prev != vec:
                raise ProblemError(where, f"antisymmetry violation: bracket ({i},{j}) given twice inconsistently")
            continue
        table[(i, j)] = vec
    brackets = []
    for (i, j), vec in sorted(table.items()):
        if i < j:
            brackets.append((i, j, tuple(sorted(vec.items()))))
        else:
            brackets.append((j, i, tuple(sorted({k: -v for k, v in vec.items()}.items()))))
    brackets.sort()
    h = _expect(doc, "h", "document", dict)
    h_indices = None
    h_embedding = None
    if "indices" in h:
        idx = h["indices"]
        if not (isinstance(idx, list) and all(_is_int(x) and 0 <= x < dim for x in idx)):
            raise ProblemError("h.indices", "must be a list of g-basis indices")
        if len(set(idx)) != len(idx):
            raise ProblemError("h.indices", "repeated index")
        h_indices = tuple(idx)
    elif "embedding" in h:
        cols = h["embedding"]
        if not isinstance(cols, list) or not cols:
            raise ProblemError("h.embedding", "must be a nonempty list of columns")
        h_embedding = []
        for cpos, col in enumerate(cols):
            if not (isinstance(col, list) and len(col) == dim):
                raise ProblemError(f"h.embedding[{cpos}]", f"column must have length {dim}")
            h_embedding.append(tuple(_rational(x, f"h.embedding[{cpos}]") for x in col))
        h_embedding = tuple(h_embedding)
    else:
        raise ProblemError("h", "need either 'indices' or 'embedding'")
    complement = None
    if "complement" in h:
        comp = h["complement"]
        if not (isinstance(comp, list) and all(_is_int(x) and 0 <= x < dim for x in comp)):
            raise ProblemError("h.complement", "must be a list of g-basis indices")
        complement = tuple(comp)
    modules = {}
    for mname, spec in _expect(doc, "modules", "document", dict, required=False, default={}).items():
        where = f"modules.{mname}"
        if mname in ("trivial", "n", "adjoint"):
            raise ProblemError(where, "the name of a built-in module")
        if not isinstance(spec, dict):
            raise ProblemError(where, "module spec must be an object")
        mdim = _expect(spec, "dim", where, int)
        mats = _expect(spec, "action", where, list)
        parsed = []
        for apos, mat in enumerate(mats):
            if not (isinstance(mat, list) and len(mat) == mdim):
                raise ProblemError(f"{where}.action[{apos}]", f"need a {mdim}x{mdim} matrix")
            rows = []
            for row in mat:
                if not (isinstance(row, list) and len(row) == mdim):
                    raise ProblemError(f"{where}.action[{apos}]", f"need a {mdim}x{mdim} matrix")
                rows.append(tuple(_rational(x, f"{where}.action[{apos}]") for x in row))
            parsed.append(tuple(rows))
        modules[mname] = (mdim, tuple(parsed))
    settings = _expect(doc, "settings", "document", dict, required=False, default={})
    return ProblemFile(
        name=name,
        dim=dim,
        labels=tuple(labels),
        brackets=brackets,
        h_indices=h_indices,
        h_embedding=h_embedding,
        complement=complement,
        modules=modules,
        settings=settings,
    )
