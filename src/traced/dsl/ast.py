"""AST for the diagram language, one node class per syntactic category.

A builtin form `name(args)` such as `id(X)`, `dual(X)`, `cut(f, 1/2)` or
`print(f)` is a `Form` (term), `ObjForm` (object), `TripleForm` (triple) or
`Command` (item) holding its name and its arguments in written order;
`parser.FORMS` is the one record of which forms exist and what they take.

Every node carries the source span of its first token (line, col) so the
type checker can point at the offending text.  Terms read in diagrammatic
order: `f ; g` executes f first, i.e. parses to Compose(g, f) in
categorical order, and `*` (tensor) binds tighter than `;`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Span:
    line: int
    col: int


# -- object expressions -------------------------------------------------------


@dataclass(frozen=True)
class ObjExpr:
    span: Span = field(repr=False)


@dataclass(frozen=True)
class ObjName(ObjExpr):
    name: str = ""


@dataclass(frozen=True)
class ObjUnit(ObjExpr):
    pass


@dataclass(frozen=True)
class ObjInt(ObjExpr):
    dim: int = 0


@dataclass(frozen=True)
class ObjGraded(ObjExpr):
    entries: tuple = ()  # ((degree, dim), ...) in written order


@dataclass(frozen=True)
class ObjPts(ObjExpr):
    labels: tuple = ()


@dataclass(frozen=True)
class ObjForm(ObjExpr):
    name: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class ObjTensor(ObjExpr):
    left: Optional[ObjExpr] = None
    right: Optional[ObjExpr] = None


# -- morphism literals ---------------------------------------------------------


@dataclass(frozen=True)
class MatrixLit:
    span: Span
    rows: tuple  # tuple of tuples of rational strings (sign included)


@dataclass(frozen=True)
class BordEntry:
    kind: str  # "arc" | "cap" | "cup" | "loop"
    a: str
    b: str
    length: str


@dataclass(frozen=True)
class BordLit:
    span: Span
    entries: tuple


@dataclass(frozen=True)
class IsoLit:
    span: Span
    pairs: tuple  # ((src, tgt), ...)


# -- diagram terms --------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    span: Span = field(repr=False)


@dataclass(frozen=True)
class Gen(Term):
    name: str = ""


@dataclass(frozen=True)
class Form(Term):
    name: str = ""
    args: tuple = ()


@dataclass(frozen=True)
class Compose(Term):
    """Categorical order: Compose(after, before)."""

    after: Optional[Term] = None
    before: Optional[Term] = None


@dataclass(frozen=True)
class Tensor(Term):
    left: Optional[Term] = None
    right: Optional[Term] = None


@dataclass(frozen=True)
class Paren(Term):
    """Explicit parentheses, kept so pretty-printing round-trips exactly."""

    inner: Optional[Term] = None


# -- triple expressions -----------------------------------------------------------


@dataclass(frozen=True)
class TripleExpr:
    span: Span = field(repr=False)


@dataclass(frozen=True)
class TripleName(TripleExpr):
    name: str = ""


@dataclass(frozen=True)
class TripleForm(TripleExpr):
    name: str = ""
    args: tuple = ()


# -- program structure ---------------------------------------------------------------


@dataclass(frozen=True)
class ObjDecl:
    span: Span
    name: str
    expr: ObjExpr


@dataclass(frozen=True)
class MorDecl:
    span: Span
    name: str
    src: ObjExpr
    tgt: ObjExpr
    literal: object


@dataclass(frozen=True)
class TripleDecl:
    span: Span
    name: str
    expr: TripleExpr


@dataclass(frozen=True)
class Command:
    span: Span
    name: str
    args: tuple


@dataclass(frozen=True)
class Program:
    span: Span  # the "instance" header
    instance_id: str
    items: tuple
