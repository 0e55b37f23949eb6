"""Per-layer tracing for the traced run, done from outside the program.

`Tracer.install()` replaces the public entry points of each module of
`traced` with wrappers, at run time and without editing the package, and
`uninstall()` puts the originals back.  A wrapped function is rebound in
every loaded `traced` module that holds it (so `from .thickened import psi`
copies are covered too); a wrapped method is replaced on its class.

Each wrapper records a span: its call count, its duration, and its self
time, which is the duration minus the part covered by child spans.  Spans
are aggregated in memory per entry rather than kept one by one, since a
single pass makes millions of them.  The wrappers also keep the
deterministic counters: the largest matrix built (dimension, nonzeros,
numerator or denominator bits), how many structural-morphism calls repeat
arguments already seen in the pass, and how many matrix tensors are
whiskerings with an identity.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# (module, owner attribute or None for a module function, attribute, span name)
ENTRY_POINTS = (
    ("traced.matrices", "RatMatrix", "__matmul__", "matrices.matmul"),
    ("traced.matrices", "RatMatrix", "kron", "matrices.kron"),
    ("traced.matrices", "RatMatrix", "__add__", "matrices.add"),
    ("traced.matrices", "RatMatrix", "__init__", "matrices.init"),
    ("traced.vect", "MatrixCategory", "compose", "vect.compose"),
    ("traced.vect", "MatrixCategory", "tensor", "vect.tensor"),
    ("traced.vect", "MatrixCategory", "switching", "vect.switching"),
    ("traced.vect", "MatrixCategory", "braiding_c", "vect.braiding"),
    ("traced.vect", "MatrixCategory", "braiding_c_inv", "vect.braiding"),
    ("traced.vect", "MatrixCategory", "identity", "vect.identity"),
    ("traced.vect", "MatrixCategory", "dual_data", "vect.dual_data"),
    ("traced.thickened", None, "psi", "thickened.psi"),
    ("traced.thickened", None, "tr_hat", "thickened.tr_hat"),
    ("traced.thickened", None, "trace_pairing", "thickened.trace_pairing"),
    ("traced.thickened", None, "tensor_triples", "thickened.tensor_triples"),
    ("traced.thickened", "SlideWitness", "holds", "thickened.slide_holds"),
    ("traced.thickened", "ThickTriple", "__post_init__", "thickened.triple_check"),
    ("traced.bordism", "RBord1", "compose", "bordism.compose"),
    ("traced.bordism", "RBord1", "tensor", "bordism.tensor"),
    ("traced.bordism", "RBord1", "glue_trace", "bordism.glue_trace"),
    ("traced.bordism", "RBord1", "cut_thickener", "bordism.cut_thickener"),
    ("traced.field_theory", "FieldTheory", "__call__", "field_theory.eval"),
    ("traced.field_theory", "FieldTheory", "power", "field_theory.power"),
    ("traced.dsl.parser", None, "tokenize", "dsl.tokenize"),
    ("traced.dsl.parser", None, "parse", "dsl.parse"),
    ("traced.dsl.typecheck", None, "typecheck", "dsl.typecheck"),
    ("traced.dsl.evaluate", None, "evaluate", "dsl.evaluate"),
    ("traced.dsl.pretty", None, "pretty", "dsl.pretty"),
    ("traced.serde", None, "dump_inputs", "serde.dump"),
)

SPANS = tuple(dict.fromkeys(name for *_, name in ENTRY_POINTS))
STRUCTURAL = frozenset({"vect.identity", "vect.switching", "vect.braiding", "vect.dual_data"})

# Spans each workload must record at least once per pass; a zero means a
# wrapper missed a binding the callers use, and fails the traced run.
_MATRIX = ("matrices.matmul", "matrices.kron", "matrices.init",
           "vect.compose", "vect.tensor", "vect.switching", "vect.identity", "vect.dual_data")
_TRIPLES = ("thickened.psi", "thickened.tr_hat", "thickened.trace_pairing",
            "thickened.slide_holds", "thickened.triple_check")
_BORDISM = ("bordism.compose", "bordism.tensor", "bordism.glue_trace", "bordism.cut_thickener",
            "field_theory.eval", "field_theory.power")
_DSL = ("dsl.tokenize", "dsl.parse", "dsl.typecheck", "dsl.evaluate", "dsl.pretty")
_RUNNER = ("suites.run_one", "gens.gen", "suites.check")
EXPECTED_SPANS = {
    "check-default": frozenset(SPANS) | frozenset(_RUNNER),
    "trace-wide": frozenset(_MATRIX + _TRIPLES + _RUNNER
                            + ("matrices.add", "vect.braiding", "thickened.tensor_triples")),
    "bordism-diag": frozenset(_MATRIX + _TRIPLES + _BORDISM + _DSL + _RUNNER),
}


def _is_identity(f) -> bool:
    m = f.payload
    return (f.source == f.target and len(m.entries) == m.rows
            and all(i == j and v == 1 for (i, j), v in m.entries.items()))


class Tracer:
    def __init__(self):
        self._restore = []
        self._stack = []
        self.reset()

    def reset(self):
        """Start a new pass: clear every span and counter."""
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.tokens = 0
        self.max_dim = self.max_nnz = self.max_coeff_bits = 0
        self.structural_calls = self.structural_repeats = 0
        self.tensor_calls = self.tensor_whiskers = 0
        self._seen = set()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` as span `name`.  `before(args)` and `after(args, result)`
        observe the call; their cost is kept out of every self time."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = clock()
            if before is not None:
                before(args)
            stack.append(0.0)
            start = clock()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = clock()
                child = stack.pop()
                self.calls[name] += 1
                self.total_s[name] += end - start
                self.self_s[name] += end - start - child
                if returned and after is not None:
                    after(args, result)
                if stack:
                    stack[-1] += clock() - outer
            return result

        return wrapper

    def wrap_suite(self, suite):
        changes = {"check": self.span("suites.check", suite.check)}
        for attr in ("gen", "data_gen"):
            if getattr(suite, attr) is not None:
                changes[attr] = self.span("gens.gen", getattr(suite, attr))
        return dataclasses.replace(suite, **changes)

    def wrap_runner(self, run_one):
        return self.span("suites.run_one", run_one)

    # -- observers --------------------------------------------------------------

    def _after_matrix(self, args, _result):
        m = args[0]
        self.max_dim = max(self.max_dim, m.rows, m.cols)
        self.max_nnz = max(self.max_nnz, len(m.entries))
        bits = self.max_coeff_bits
        for v in m.entries.values():
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        self.max_coeff_bits = bits

    def _structural(self, attr):
        def before(args):
            key = (attr, args[0].instance_id, args[1:])
            self.structural_calls += 1
            if key in self._seen:
                self.structural_repeats += 1
            else:
                self._seen.add(key)
        return before

    def _before_tensor(self, args):
        self.tensor_calls += 1
        if _is_identity(args[1]) or _is_identity(args[2]):
            self.tensor_whiskers += 1

    def _after_tokenize(self, _args, tokens):
        self.tokens += len(tokens)

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        """Import every `traced` module, so none picks up a wrapper later and
        keeps it after `uninstall()`, then wrap every entry point."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import traced

        for info in pkgutil.walk_packages(traced.__path__, "traced."):
            importlib.import_module(info.name)
        wrapped = {}
        for module, owner, attr, name in ENTRY_POINTS:
            mod = sys.modules[module]
            before = after = None
            if name == "matrices.init":
                after = self._after_matrix
            elif name in STRUCTURAL:
                before = self._structural(attr)
            elif name == "vect.tensor":
                before = self._before_tensor
            elif name == "dsl.tokenize":
                after = self._after_tokenize
            if owner is None:
                orig = getattr(mod, attr)
                wrapped[id(orig)] = (orig, self.span(name, orig, before, after))
            else:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self.span(name, orig, before, after))
        for mod in [m for n, m in sys.modules.items() if n == "traced" or n.startswith("traced.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def missing(self, workload: str):
        """Expected spans of `workload` that recorded no call this pass."""
        return sorted(n for n in EXPECTED_SPANS[workload] if not self.calls.get(n))

    def snapshot(self, workload: str) -> dict:
        """The spans and counters of the pass just run."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "tokens": self.tokens,
            "max_dim": self.max_dim,
            "max_nnz": self.max_nnz,
            "max_coeff_bits": self.max_coeff_bits,
            "structural": (self.structural_repeats, self.structural_calls),
            "tensor": (self.tensor_whiskers, self.tensor_calls),
            "missing": self.missing(workload),
        }
