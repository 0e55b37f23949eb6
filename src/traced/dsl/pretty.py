"""Canonical pretty-printer; parse . pretty and pretty . parse are identities
on canonically formatted programs."""

from __future__ import annotations

from . import ast
from .parser import FORMS


def pretty(program: ast.Program) -> str:
    lines = [f"instance {program.instance_id}"]
    for item in program.items:
        lines.append(_item(item))
    return "\n".join(lines) + "\n"


def _item(item) -> str:
    if isinstance(item, ast.ObjDecl):
        return f"obj {item.name} = {_obj(item.expr)}"
    if isinstance(item, ast.MorDecl):
        return f"mor {item.name} : {_obj(item.src)} -> {_obj(item.tgt)} = {literal(item.literal)}"
    if isinstance(item, ast.TripleDecl):
        return f"triple {item.name} = {_triple(item.expr)}"
    if isinstance(item, ast.Command):
        return _form(item)
    raise AssertionError(f"unhandled item {item!r}")


def _form(e) -> str:
    _node, roles = FORMS[e.name]
    return f"{e.name}(" + ", ".join(_ARG[kind](a) for (_role, kind), a in zip(roles, e.args)) + ")"


def _obj(e: ast.ObjExpr) -> str:
    if isinstance(e, ast.ObjForm):
        return _form(e)
    if isinstance(e, ast.ObjName):
        return e.name
    if isinstance(e, ast.ObjUnit):
        return "I"
    if isinstance(e, ast.ObjInt):
        return str(e.dim)
    if isinstance(e, ast.ObjGraded):
        inner = ", ".join(f"{d}: {n}" for d, n in e.entries)
        return "graded{" + inner + "}"
    if isinstance(e, ast.ObjPts):
        return "pts{" + ", ".join(e.labels) + "}"
    if isinstance(e, ast.ObjTensor):
        # left-associated chains print flat, right nesting keeps parens
        left = _obj(e.left) if isinstance(e.left, ast.ObjTensor) else _obj_factor(e.left)
        return f"{left} * {_obj_factor(e.right)}"
    raise AssertionError(f"unhandled object expression {e!r}")


def _obj_factor(e: ast.ObjExpr) -> str:
    if isinstance(e, ast.ObjTensor):
        return "(" + _obj(e) + ")"
    return _obj(e)


def literal(lit) -> str:
    """A morphism literal, as the parser reads it back."""
    if isinstance(lit, ast.MatrixLit):
        rows = ["[" + ", ".join(row) + "]" for row in lit.rows]
        return "[" + ", ".join(rows) + "]"
    if isinstance(lit, ast.BordLit):
        parts = []
        for e in lit.entries:
            if e.kind == "loop":
                parts.append(f"loop: {e.length}")
            elif e.kind == "arc":
                parts.append(f"{e.a}->{e.b} : {e.length}")
            else:
                parts.append(f"{e.kind} {e.a} {e.b} : {e.length}")
        return "bord{" + ", ".join(parts) + "}"
    if isinstance(lit, ast.IsoLit):
        return "iso{" + ", ".join(f"{a}->{b}" for a, b in lit.pairs) + "}"
    raise AssertionError(f"unhandled literal {lit!r}")


def _term(t: ast.Term) -> str:
    if isinstance(t, ast.Compose):
        # stored categorically, printed diagrammatically
        return f"{_term(t.before)} ; {_seq_factor(t.after)}"
    return _seq_factor(t)


def _seq_factor(t: ast.Term) -> str:
    if isinstance(t, ast.Compose):
        return "(" + _term(t) + ")"
    if isinstance(t, ast.Tensor):
        # tensor chains associate left, so the left factor stays bare
        return f"{_seq_factor(t.left)} * {_tens_factor(t.right)}"
    return _tens_factor(t)


def _tens_factor(t: ast.Term) -> str:
    if isinstance(t, (ast.Compose, ast.Tensor)):
        return "(" + _term(t) + ")"
    return _atom(t)


def _atom(t: ast.Term) -> str:
    if isinstance(t, ast.Form):
        return _form(t)
    if isinstance(t, ast.Gen):
        return t.name
    if isinstance(t, ast.Paren):
        return "(" + _term(t.inner) + ")"
    raise AssertionError(f"unhandled term {t!r}")


def _triple(e: ast.TripleExpr) -> str:
    if isinstance(e, ast.TripleForm):
        return _form(e)
    if isinstance(e, ast.TripleName):
        return e.name
    raise AssertionError(f"unhandled triple expression {e!r}")


# argument kind (a Parser method) -> printer
_ARG = {"objexpr": _obj, "term": _term, "tripleexpr": _triple,
        "unsigned_int": str, "rational": str}
