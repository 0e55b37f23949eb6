"""Dom/cod type checking for parsed programs, which also compiles them.

Resolves objects, validates morphism literals against their declared types
(shape, degree preservation, boundary matching) and rejects the operations
the target instance does not provide.

Every diagnostic carries a source position, which the node being checked
supplies: `_placed` wraps the checks of items, object expressions,
literals, terms and triple expressions, and places an error raised without
a position (the checker's own or an instance's) at that node's span.  An
error that an inner node has placed passes through, so each error points
at the innermost node whose check raised it.  Only the header error is
placed by hand.

The same walk compiles each item: a term or triple expression yields its
type together with a closure, over the objects already resolved, that
computes its value.  Each `triple`, `print` and `assert_equal` item becomes
one step of the `TypedProgram`, and `evaluate` only runs the steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bordism import IN, OUT
from ..core import ObjectRef, get_instance
from ..errors import DslError, TracedError, TypecheckError
from ..matrices import RatMatrix
from ..thickened import canonical_thickener, tr_hat, trace_pairing
from .._rat import parse_rat
from . import ast

# The boundary ends (of a, of b) that each non-loop `bord{...}` entry joins.  Bord.make
# stores in-ends first, so every arc of a bordism has the kind of exactly one entry.
BORD_ENDS = {"arc": (IN, OUT), "cap": (IN, IN), "cup": (OUT, OUT)}


@dataclass
class TypedProgram:
    instance_id: str
    # (item, closure) per triple, print and assert_equal item, in program order; the
    # closure binds the triple, or returns the printed morphism or the asserted pair
    steps: list


def _arrow(ty) -> str:
    return f"{ty[0].payload!r} -> {ty[1].payload!r}"


def _placed(check):
    """A node's check that places each error it raises without a position at
    the node's span; an error already placed passes through unchanged."""

    def placed(self, node, *args):
        try:
            return check(self, node, *args)
        except TracedError as exc:
            if isinstance(exc, DslError) and exc.line:
                raise
            raise TypecheckError(str(exc), node.span.line, node.span.col) from exc

    return placed


class Checker:
    def __init__(self, program: ast.Program):
        self.program = program
        try:
            self.inst = get_instance(program.instance_id)
        except (KeyError, ValueError) as exc:  # an unknown id or a bad graded q
            raise TypecheckError(exc.args[0], program.span.line, program.span.col) from exc
        self.objects: dict[str, ObjectRef] = {}
        self.morphisms: dict = {}
        self.triples: dict = {}  # name -> ((dom, cod), closure reading the bound triple)

    def run(self) -> TypedProgram:
        steps = []
        for item in self.program.items:
            step = self.item(item)
            if step is not None:
                steps.append((item, step))
        return TypedProgram(instance_id=self.program.instance_id, steps=steps)

    @_placed
    def item(self, item):
        """Check one item; a triple, print or assert_equal item returns its step."""
        if isinstance(item, ast.ObjDecl):
            self._bind_fresh(item.name)
            self.objects[item.name] = self.objexpr(item.expr)
        elif isinstance(item, ast.MorDecl):
            self._bind_fresh(item.name)
            src = self.objexpr(item.src)
            tgt = self.objexpr(item.tgt)
            self.morphisms[item.name] = self.literal(item.literal, src, tgt)
        elif isinstance(item, ast.TripleDecl):
            self._bind_fresh(item.name)
            ty, triple = self.tripleexpr(item.expr)
            bound = {}  # filled by the step, read by every use of the name
            self.triples[item.name] = (ty, lambda: bound["triple"])
            return lambda: bound.update(triple=triple())
        elif item.name == "print":  # the rest are commands
            return self.term(item.args[0])[1]
        elif item.name == "assert_equal":
            lt, left = self.term(item.args[0])
            rt, right = self.term(item.args[1])
            if lt != rt:
                raise TypecheckError(
                    f"assert_equal compares a morphism {_arrow(lt)} with one {_arrow(rt)}")
            return lambda: (left(), right())

    def _bind_fresh(self, name: str):
        if name in self.objects or name in self.morphisms or name in self.triples:
            raise TypecheckError(f"name {name!r} is already bound")

    def _needs(self, op: str, refusal: str):
        """Refuse a form of the optional operation `op` if the instance lacks it."""
        if not self.inst.provides(op):
            raise TypecheckError(f"instance {self.inst.instance_id!r} {refusal}")

    # -- objects ---------------------------------------------------------------

    @_placed
    def objexpr(self, e: ast.ObjExpr) -> ObjectRef:
        """Resolve an object expression against the bound object names."""
        inst = self.inst
        iid = inst.instance_id
        if isinstance(e, ast.ObjName):
            if e.name not in self.objects:
                raise TypecheckError(f"unknown object {e.name!r}")
            return self.objects[e.name]
        if isinstance(e, ast.ObjUnit):
            return inst.unit_object()
        if isinstance(e, ast.ObjInt):
            if iid != "finvect":
                raise TypecheckError("bare dimensions are finvect objects only")
            return inst.space(e.dim)
        if isinstance(e, ast.ObjForm) and e.name == "super":
            if iid != "supervect":
                raise TypecheckError("super(...) objects live in supervect")
            return inst.space(*e.args)
        if isinstance(e, ast.ObjGraded):
            if not iid.startswith("graded"):
                raise TypecheckError("graded{...} objects live in graded(q=...)")
            dims: dict[int, int] = {}
            for (deg, dim) in e.entries:
                if deg in dims:
                    raise TypecheckError(f"degree {deg} listed twice")
                dims[deg] = dim
            return inst.space(dims)
        if isinstance(e, ast.ObjPts):
            if iid != "rbord1":
                raise TypecheckError("pts{...} objects live in rbord1")
            return inst.points(e.labels)
        if isinstance(e, ast.ObjForm) and e.name == "dual":
            inner = self.objexpr(e.args[0])
            self._needs("dual_data", "has no duals")
            return inst.dual_obj(inner)
        if isinstance(e, ast.ObjTensor):
            left = self.objexpr(e.left)
            right = self.objexpr(e.right)
            return inst.tensor_obj(left, right)
        raise TypecheckError(f"unhandled object expression {e!r}")

    # -- literals -----------------------------------------------------------------

    @_placed
    def literal(self, lit, src: ObjectRef, tgt: ObjectRef):
        inst = self.inst
        if isinstance(lit, ast.MatrixLit):
            if inst.instance_id == "rbord1":
                raise TypecheckError("matrix literals need a matrix instance")
            rows = [[parse_rat(v) for v in row] for row in lit.rows]
            widths = {len(r) for r in rows}
            if len(rows) != len(tgt.payload) or widths - {len(src.payload)}:
                got = f"{len(rows)}x{'/'.join(str(w) for w in sorted(widths)) or '0'}"
                raise TypecheckError(
                    f"matrix shape {got} does not match {len(tgt.payload)}x{len(src.payload)}")
            matrix = RatMatrix.from_rows(rows) if rows else RatMatrix.zero(0, len(src.payload))
            return inst.mor(src, tgt, matrix)
        if isinstance(lit, ast.BordLit):
            if inst.instance_id != "rbord1":
                raise TypecheckError("bord{...} literals live in rbord1")
            arcs, circles = [], []
            for entry in lit.entries:
                length = parse_rat(entry.length)
                if entry.kind == "loop":
                    circles.append(length)
                else:
                    end_a, end_b = BORD_ENDS[entry.kind]
                    arcs.append(((end_a, entry.a), (end_b, entry.b), length))
            return inst.bord_mor(src, tgt, arcs, circles)
        if isinstance(lit, ast.IsoLit):
            if inst.instance_id != "rbord1":
                raise TypecheckError("iso{...} literals live in rbord1")
            return inst.iso_mor(src, tgt, dict(lit.pairs))
        raise TypecheckError("unhandled literal")

    # -- terms ---------------------------------------------------------------------

    @_placed
    def term(self, t: ast.Term):
        """The type (src, tgt) of a term and the closure that computes it."""
        inst = self.inst
        if isinstance(t, ast.Gen):
            if t.name not in self.morphisms:
                raise TypecheckError(f"unknown morphism {t.name!r}")
            m = self.morphisms[t.name]
            return (m.source, m.target), lambda: m
        if isinstance(t, ast.Compose):
            bt, before = self.term(t.before)
            at, after = self.term(t.after)
            if bt[1] != at[0]:
                raise TypecheckError(f"cannot chain: left ends at {bt[1].payload!r} but right"
                                     f" starts at {at[0].payload!r}")
            return (bt[0], at[1]), lambda: inst.compose(after(), before())
        if isinstance(t, ast.Tensor):
            lt, left = self.term(t.left)
            rt, right = self.term(t.right)
            ty = (inst.tensor_obj(lt[0], rt[0]), inst.tensor_obj(lt[1], rt[1]))
            return ty, lambda: inst.tensor(left(), right())
        if isinstance(t, ast.Paren):
            return self.term(t.inner)
        if isinstance(t, ast.Form):
            return self.form(t)
        raise TypecheckError(f"unhandled term {t!r}")

    def form(self, t: ast.Form):
        """The type rule of a builtin term form, chosen by its name."""
        inst, name = self.inst, t.name
        if name == "id":
            x = self.objexpr(t.args[0])
            return (x, x), lambda: inst.identity(x)
        if name in ("s", "c"):
            if name == "c":
                self._needs("braiding_c", "is not braided")
            x, y = self.objexpr(t.args[0]), self.objexpr(t.args[1])
            swap = inst.switching if name == "s" else inst.braiding_c
            return (inst.tensor_obj(x, y), inst.tensor_obj(y, x)), lambda: swap(x, y)
        if name == "theta":
            self._needs("twist_theta", "is not balanced")
            x = self.objexpr(t.args[0])
            return (x, x), lambda: inst.twist_theta(x)
        if name in ("ev", "coev"):
            x = self.objexpr(t.args[0])
            self._needs("dual_data", "has no duals")
            xd = inst.dual_obj(x)
            unit = inst.unit_object()
            if name == "ev":
                return (inst.tensor_obj(xd, x), unit), lambda: inst.dual_data(x)[1]
            return (unit, inst.tensor_obj(x, xd)), lambda: inst.dual_data(x)[2]
        if name == "trace_hat":
            ty, triple = self.tripleexpr(t.args[0])
            if ty[0] != ty[1]:
                raise TypecheckError(
                    f"trace_hat needs an endomorphism-shaped triple, got {_arrow(ty)}")
            unit = inst.unit_object()
            return (unit, unit), lambda: tr_hat(triple())
        if name == "pairing":
            ft, f = self.term(t.args[0])
            gt, g = self.term(t.args[1])
            if not (gt[0] == ft[1] and gt[1] == ft[0]):
                raise TypecheckError(
                    f"pairing needs opposite shapes, got {_arrow(ft)} against {_arrow(gt)}")
            half = parse_rat("1/2")  # where rbord1 cuts f to thicken it

            def pairing():
                f_value, g_value = f(), g()
                if inst.instance_id == "rbord1":
                    f_hat = inst.cut_thickener(f_value, half)
                else:
                    f_hat = canonical_thickener(f_value)
                return trace_pairing(f_hat, g_value)

            unit = inst.unit_object()
            return (unit, unit), pairing
        raise TypecheckError(f"unhandled term {t!r}")

    @_placed
    def tripleexpr(self, e: ast.TripleExpr):
        """The (dom, cod) of a triple expression and the closure that computes it."""
        inst = self.inst
        if isinstance(e, ast.TripleName):
            if e.name not in self.triples:
                raise TypecheckError(f"unknown triple {e.name!r}")
            return self.triples[e.name]
        if isinstance(e, ast.TripleForm) and e.name == "cut":
            if inst.instance_id != "rbord1":
                raise TypecheckError("cut(...) lives in rbord1")
            ty, sigma = self.term(e.args[0])
            frac = parse_rat(e.args[1])
            if not (0 < frac < 1):
                raise TypecheckError("cut fraction must lie in (0,1)")
            return ty, lambda: inst.cut_thickener(sigma(), frac)
        if isinstance(e, ast.TripleForm) and e.name == "thicken":
            ty, f = self.term(e.args[0])
            if not inst.provides("dual_data"):
                raise TypecheckError(f"thicken needs duals; instance {inst.instance_id!r} has none")
            return ty, lambda: canonical_thickener(f())
        raise TypecheckError("unhandled triple expression")


def typecheck(program: ast.Program) -> TypedProgram:
    return Checker(program).run()
