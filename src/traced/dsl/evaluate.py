"""Evaluation of typechecked programs against their instance.

The type checker has already compiled every item to a closure; evaluation
runs the compiled steps in program order and renders what they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import get_instance
from ..errors import DslError, TracedError
from .._rat import rat_str
from . import ast
from .pretty import literal
from .typecheck import BORD_ENDS, TypedProgram

_KIND_OF_ENDS = {ends: kind for kind, ends in BORD_ENDS.items()}


@dataclass
class PrintResult:
    line: int
    text: str


@dataclass
class AssertResult:
    line: int
    ok: bool
    left: str
    right: str


@dataclass
class EvalReport:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results if isinstance(r, AssertResult))


def render_value(inst, m) -> str:
    """A morphism value as the literal pretty writes: `iso{...}` when every
    strand is thin, else `bord{...}` with each arc written as the entry kind
    of its ends; a scalar as its one entry, any other matrix as its rows."""
    if inst.instance_id == "rbord1":
        pairs = m.payload.isometry
        if pairs is not None:
            return literal(ast.IsoLit(None, pairs))
        entries = [ast.BordEntry(_KIND_OF_ENDS[a[0], b[0]], a[1], b[1], rat_str(l))
                   for (a, b, l) in m.payload.arcs]
        entries += [ast.BordEntry("loop", "", "", rat_str(c)) for c in m.payload.circles]
        return literal(ast.BordLit(None, tuple(entries)))
    mat = m.payload
    if mat.rows == 1 and mat.cols == 1 and inst.is_scalar(m):
        return rat_str(mat.entry(0, 0))
    return literal(ast.MatrixLit(None, tuple(tuple(rat_str(v) for v in row)
                                             for row in mat.to_rows())))


def evaluate(tp: TypedProgram) -> EvalReport:
    inst = get_instance(tp.instance_id)
    results = []
    for item, step in tp.steps:
        try:
            value = step()
        except TracedError as exc:  # e.g. cutting a thin strand: name the item
            raise DslError(str(exc), item.span.line, item.span.col) from exc
        if isinstance(item, ast.Command) and item.name == "print":
            results.append(PrintResult(item.span.line, render_value(inst, value)))
        elif isinstance(item, ast.Command):  # assert_equal
            left, right = value
            results.append(AssertResult(item.span.line, inst.mor_equal(left, right),
                                        render_value(inst, left), render_value(inst, right)))
    return EvalReport(results)
