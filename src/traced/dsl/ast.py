"""AST for the diagram language.

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
class ObjSuper(ObjExpr):
    even: int = 0
    odd: int = 0


@dataclass(frozen=True)
class ObjGraded(ObjExpr):
    entries: tuple = ()  # ((degree, dim), ...) in written order


@dataclass(frozen=True)
class ObjPts(ObjExpr):
    labels: tuple = ()


@dataclass(frozen=True)
class ObjDual(ObjExpr):
    inner: Optional[ObjExpr] = None


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
class Id(Term):
    obj: Optional[ObjExpr] = None


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
class S(Term):
    x: Optional[ObjExpr] = None
    y: Optional[ObjExpr] = None


@dataclass(frozen=True)
class C(Term):
    x: Optional[ObjExpr] = None
    y: Optional[ObjExpr] = None


@dataclass(frozen=True)
class Theta(Term):
    obj: Optional[ObjExpr] = None


@dataclass(frozen=True)
class Ev(Term):
    obj: Optional[ObjExpr] = None


@dataclass(frozen=True)
class Coev(Term):
    obj: Optional[ObjExpr] = None


@dataclass(frozen=True)
class TraceHat(Term):
    triple: object = None


@dataclass(frozen=True)
class Pairing(Term):
    f: Optional[Term] = None
    g: Optional[Term] = None


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
class Cut(TripleExpr):
    term: Optional[Term] = None
    fraction: str = ""


@dataclass(frozen=True)
class Thicken(TripleExpr):
    term: Optional[Term] = None


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
class PrintCmd:
    span: Span
    term: Term


@dataclass(frozen=True)
class AssertCmd:
    span: Span
    left: Term
    right: Term


@dataclass(frozen=True)
class Program:
    span: Span  # the "instance" header
    instance_id: str
    items: tuple
