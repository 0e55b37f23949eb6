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
    """A morphism value in the literal syntax: `iso{...}` when every strand
    is thin, else `bord{...}` with each arc written as the entry kind of its
    ends; a scalar as its one entry, any other matrix as its rows."""
    if inst.instance_id == "rbord1":
        pairs = m.payload.isometry
        if pairs is not None:
            return "iso{" + ", ".join(f"{a}->{b}" for a, b in pairs) + "}"
        parts = []
        for (a, b, l) in m.payload.arcs:
            kind = _KIND_OF_ENDS[a[0], b[0]]
            ends = f"{a[1]}->{b[1]}" if kind == "arc" else f"{kind} {a[1]} {b[1]}"
            parts.append(f"{ends} : {rat_str(l)}")
        parts.extend(f"loop: {rat_str(c)}" for c in m.payload.circles)
        return "bord{" + ", ".join(parts) + "}"
    mat = m.payload
    if mat.rows == 1 and mat.cols == 1 and inst.is_scalar(m):
        return rat_str(mat.entry(0, 0))
    rows = ["[" + ", ".join(rat_str(v) for v in row) + "]" for row in mat.to_rows()]
    return "[" + ", ".join(rows) + "]"


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
