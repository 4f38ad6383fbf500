"""Outside-in tracer: spans and counters recorded around pbwgate's public
functions, without any change to the package.

Each wrapped function opens a span (name, start, end, parent, request) while
it runs.  A function is replaced in every ``pbwgate`` module namespace that
holds it, because callers look names up where they imported them (``report``
imports ``section_oracle`` from ``engine``, for example).  ``Echelon`` rows
are counted, not spanned, and attributed to the innermost layer that is
running when they are inserted.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# span name -> (module, attribute); a dotted attribute names a method
SPANNED = {
    "problem": [("problem", "parse_problem")],
    "lie.make_pair": [("lie", "make_pair")],
    "lie.validate": [("lie", "validate_lie")],
    "cohomology": [
        ("cohomology", "connecting_cocycle"),
        ("cohomology", "alpha_cocycle"),
        ("cohomology", "find_extension"),
        ("cohomology", "pushout_data"),
    ],
    "cohomology.is_trivial": [("cohomology", "is_trivial")],
    "engine.filtration": [("engine", "FilteredModule.__init__")],
    "engine.split": [("engine", "pbw_splitting_I")],
    "engine.oracle": [("engine", "section_oracle")],
    "engine.dims": [("engine", "dimension_identity_check")],
    "engine.f2": [("engine", "f2_class_check")],
    "koszul": [
        ("koszul", "quadratic_data"),
        ("koszul", "bg_conditions"),
        ("koszul", "ktilde_basis"),
    ],
    "koszul.qa_dim": [("koszul", "qa_graded_dimension")],
    "koszul.acyclicity": [("koszul", "koszul_acyclicity")],
    "report": [("report", "run_command")],
}

# span name -> layer whose self time it counts towards
LAYER_OF = {name: name for name in SPANNED}
LAYER_OF.update(
    {
        "lie.make_pair": "lie",
        "lie.validate": "lie",
        "cohomology.is_trivial": "cohomology",
        "koszul.qa_dim": "koszul",
        "koszul.acyclicity": "koszul",
    }
)
LAYERS = (
    "problem",
    "lie",
    "cohomology",
    "engine.filtration",
    "engine.split",
    "engine.oracle",
    "engine.dims",
    "engine.f2",
    "koszul",
    "report",
)

# layers whose elimination work is reported under linalg.echelon.<caller>
ECHELON_CALLERS = {"engine.oracle": "oracle", "engine.dims": "dims", "koszul": "koszul"}
COUNTERS = (
    "cohomology.is_trivial.calls",
    "engine.rewrite.free_words",
    "engine.rewrite.pbw_words",
    "engine.filtration.words",
    "engine.split.t_map_calls",
    "engine.oracle.calls",
    "engine.oracle.unknowns",
)
ORACLE_KEYS = tuple(f"{side}{k}" for side in "FR" for k in (2, 3, 4))


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_s", "echelons")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.echelons = []  # Echelon objects created while this span was innermost

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Install with ``with Tracer(pbwgate) as tr:``; originals come back on exit."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.stack = []
        self.request = 0
        self.counts = defaultdict(float)
        self.oracle_solves = []  # (key, seconds, unknowns, rows, rank)
        self.pairs = []  # InclusionPair objects built in the current request
        self._restore = []
        self._echelon_live = {}  # id(Echelon) -> [caller, inserts] while its owner span is open
        self._seq_keys = {}  # id(ShortExactSequence) -> (weakref, "F3" ...)

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        mods = {name: sys.modules[f"{self.package.__name__}.{name}"] for name in
                ("problem", "lie", "cohomology", "engine", "koszul", "report", "linalg")}
        for span_name, targets in SPANNED.items():
            for mod_name, attr in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[mod_name], cls_name)
                    self._set(cls, meth, self._spanned(span_name, getattr(cls, meth)))
                else:
                    orig = getattr(mods[mod_name], attr)
                    self._replace_everywhere(orig, self._spanned(span_name, orig))
        engine, linalg = mods["engine"], mods["linalg"]
        self._replace_everywhere(engine.t_map, self._counted("engine.split.t_map_calls", engine.t_map))
        self._replace_everywhere(engine.level_sequence, self._keyed_sequence(engine.level_sequence))
        ech = linalg.Echelon
        self._set(ech, "__init__", self._echelon_init(ech.__init__))
        self._set(ech, "insert", self._echelon_insert(ech.insert))
        self._set(ech, "back_reduce", self._echelon_back_reduce(ech.back_reduce))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapper):
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    # -- spans ----------------------------------------------------------------

    @property
    def layer(self):
        return LAYER_OF[self.stack[-1].name] if self.stack else None

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), parent, self.request)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        caller = ECHELON_CALLERS.get(LAYER_OF[span.name])
        for ech in span.echelons:
            self.counts[f"linalg.echelon.{caller}.fill_nnz"] += sum(len(r) for r in ech.pivots.values())
            self._echelon_live.pop(id(ech), None)
        span.echelons = None
        self.spans.append(span)

    def _spanned(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer._close_with(span, name, args, out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_with(self, span, name, args, out):
        solve = None
        if name == "cohomology.is_trivial":
            self.counts["cohomology.is_trivial.calls"] += 1
        elif name == "engine.filtration":
            self.counts["engine.filtration.words"] += len(getattr(args[0], "words", ()))
        elif name == "lie.make_pair" and out is not None:
            self.pairs.append(out)
        elif name == "engine.oracle":
            seq = args[0]
            ref = self._seq_keys.get(id(seq))
            key = ref[1] if ref is not None and ref[0]() is seq else "other"
            unknowns = seq.sub.dim * seq.quot.dim
            # the equivariance system is the last elimination with one column
            # per unknown plus the right-hand side
            main = [e for e in span.echelons if e.ncols == unknowns + 1]
            rows = self._echelon_live[id(main[-1])][1] if main else 0
            rank = main[-1].rank if main else 0
            self.counts["engine.oracle.calls"] += 1
            self.counts["engine.oracle.unknowns"] += unknowns
            solve = (key, unknowns, rows, rank)
        self._close(span)
        if solve is not None:
            self.oracle_solves.append((solve[0], span.duration) + solve[1:])

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _keyed_sequence(self, fn):
        keys = self._seq_keys

        def wrapper(filt, k, *args, **kwargs):
            seq = fn(filt, k, *args, **kwargs)
            keys[id(seq)] = (weakref.ref(seq), f"{filt.side}{k}")
            return seq

        wrapper.__wrapped__ = fn
        return wrapper

    # -- Echelon counters -----------------------------------------------------

    def _caller(self, ech):
        live = self._echelon_live.get(id(ech))
        if live is not None:
            return live[0], live
        return ECHELON_CALLERS.get(self.layer), None

    def _echelon_init(self, fn):
        tracer = self

        def wrapper(ech, *args, **kwargs):
            fn(ech, *args, **kwargs)
            caller = ECHELON_CALLERS.get(tracer.layer)
            if caller is not None:
                tracer.stack[-1].echelons.append(ech)
                tracer._echelon_live[id(ech)] = [caller, 0]

        return wrapper

    def _echelon_insert(self, fn):
        tracer = self
        counts = self.counts

        def wrapper(ech, vec):
            t0 = time.perf_counter()
            pivot = fn(ech, vec)
            dt = time.perf_counter() - t0
            caller, live = tracer._caller(ech)
            if caller is not None:
                if live is not None:
                    live[1] += 1
                counts[f"linalg.echelon.{caller}.inserts"] += 1
                counts[f"linalg.echelon.{caller}.insert_s"] += dt
                if pivot is not None:
                    counts[f"linalg.echelon.{caller}.rank"] += 1
            return pivot

        return wrapper

    def _echelon_back_reduce(self, fn):
        tracer = self
        counts = self.counts

        def wrapper(ech):
            t0 = time.perf_counter()
            fn(ech)
            caller, _ = tracer._caller(ech)
            if caller is not None:
                counts[f"linalg.echelon.{caller}.back_reduce_s"] += time.perf_counter() - t0

        return wrapper

    # -- per-pass summary -----------------------------------------------------

    def end_request(self):
        """Read the rewriting caches of the pairs this request built."""
        for pair in self.pairs:
            caches = pair._caches
            self.counts["engine.rewrite.free_words"] += len(caches.get("free_words", ()))
            self.counts["engine.rewrite.pbw_words"] += len(caches.get("pbw_words", ()))
        self.pairs = []
        self.request += 1

    def take_pass(self):
        """Per-layer numbers of the spans and counters since the last call.

        Returns the metrics, the three heaviest oracle solves as
        (key, seconds, unknowns, rows, rank), and the spans as
        (name, start, end, parent index, request) tuples.
        """
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, defaultdict(float)
        solves, self.oracle_solves = self.oracle_solves, []
        self._seq_keys.clear()
        self_s = dict.fromkeys(LAYERS, 0.0)
        out = dict.fromkeys(("problem.parse_s", "lie.make_pair_s", "lie.validate_s",
                             "koszul.qa_dim.s", "koszul.acyclicity.s"), 0.0)
        for span in spans:
            self_s[LAYER_OF[span.name]] += span.self_s
            if span.name == "problem":
                out["problem.parse_s"] += span.self_s
            elif span.name in ("lie.make_pair", "lie.validate"):
                out[span.name + "_s"] += span.self_s
            elif span.name in ("koszul.qa_dim", "koszul.acyclicity"):
                out[span.name + ".s"] += span.duration
        for layer in LAYERS:
            if layer not in ("problem", "lie"):
                out[f"{layer}.s"] = self_s[layer]
        for key in ORACLE_KEYS:
            at_key = [s for s in solves if s[0] == key]
            heaviest = max(at_key, key=lambda s: s[2], default=(key, 0.0, 0, 0, 0))
            out[f"engine.oracle.{key}.s"] = sum(s[1] for s in at_key)
            out[f"engine.oracle.{key}.unknowns"] = heaviest[2]
            out[f"engine.oracle.{key}.rows"] = heaviest[3]
            out[f"engine.oracle.{key}.rank"] = heaviest[4]
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        for caller in ECHELON_CALLERS.values():
            base = f"linalg.echelon.{caller}"
            for stat in ("inserts", "rank", "insert_s", "back_reduce_s", "fill_nnz"):
                out[f"{base}.{stat}"] = counts.get(f"{base}.{stat}", 0)
            inserts = out[f"{base}.inserts"]
            out[f"{base}.pivot_ratio"] = out[f"{base}.rank"] / inserts if inserts else 0.0
        index = {id(s): i for i, s in enumerate(spans)}
        records = [(s.name, s.start, s.end, index.get(id(s.parent)), s.request) for s in spans]
        return out, self_s, sorted(solves, key=lambda s: -s[1])[:3], records
