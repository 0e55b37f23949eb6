"""Lexer and recursive-descent parser for .diag programs.

    program := "instance" instname item*
    item    := "obj" NAME "=" objexpr
             | "mor" NAME ":" objexpr "->" objexpr "=" morlit
             | "triple" NAME "=" tripleexpr
             | command                 a Command in FORMS: print, assert_equal
    term    := tens (";" tens)*        ";" is diagrammatic (left runs first)
    tens    := atom ("*" atom)*        "*" binds tighter than ";"

Items are declarations or commands.  Every builtin form, a command or a
term, object or triple form, is `name "(" arg {"," arg} ")"` read from its
FORMS entry.  `#` starts a line comment.  Numbers are unsigned rationals
INT[/INT] in ASCII digits with a nonzero denominator, each INT of at most
sys.get_int_max_str_digits() digits (4300 by default; 0 means no limit).
A leading "-" is parsed where signed values are legal (matrix entries,
graded degrees).
"""

from __future__ import annotations

import re
import sys

from ..errors import LexError, ParseError
from . import ast
from .ast import Span

_SYMBOLS = "-(){}[],:;*="  # the one-character symbols; "->" is the only longer one

# Every character of a program falls in exactly one piece.  `tokenize` keeps
# names, numbers and symbols, and rejects any other piece.
_PIECE = re.compile(rf"""
    [ \t\r]+ | \#[^\n]* | \n           # blanks, comments, newlines
  | [^\W\d][\w']*                      # names; "\w" also holds numerals such as "²"
  | [0-9]+(?:/[0-9]+)?                 # unsigned rationals in ASCII digits
  | -> | [{re.escape(_SYMBOLS)}]
  | .
""", re.VERBOSE)

# name -> (AST node, ((role, argument kind), ...)), the one record of the
# builtin forms.  The node class says where a form may appear (item, term,
# object or triple); a kind names the Parser method that reads an argument,
# in the order the node keeps.  `pretty` prints from the same table.
FORMS = {
    "print": (ast.Command, (("term", "term"),)),
    "assert_equal": (ast.Command, (("left", "term"), ("right", "term"))),
    "id": (ast.Form, (("obj", "objexpr"),)),
    "s": (ast.Form, (("x", "objexpr"), ("y", "objexpr"))),
    "c": (ast.Form, (("x", "objexpr"), ("y", "objexpr"))),
    "theta": (ast.Form, (("obj", "objexpr"),)),
    "ev": (ast.Form, (("obj", "objexpr"),)),
    "coev": (ast.Form, (("obj", "objexpr"),)),
    "trace_hat": (ast.Form, (("triple", "tripleexpr"),)),
    "pairing": (ast.Form, (("f", "term"), ("g", "term"))),
    "cut": (ast.TripleForm, (("term", "term"), ("fraction", "rational"))),
    "thicken": (ast.TripleForm, (("term", "term"),)),
    "dual": (ast.ObjForm, (("inner", "objexpr"),)),
    "super": (ast.ObjForm, (("even", "unsigned_int"), ("odd", "unsigned_int"))),
}

# declaration keyword -> the Parser method that reads the declaration
_DECLS = {"obj": "obj_decl", "mor": "mor_decl", "triple": "triple_decl"}


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "name" | "number" | "symbol" | "eof"
        self.text = text
        self.line = line
        self.col = col

    @property
    def span(self):
        return Span(self.line, self.col)

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


def tokenize(text: str):
    tokens = []
    max_digits = sys.get_int_max_str_digits()  # 0: no limit
    line, line_start, pos = 1, 0, 0
    for piece in _PIECE.findall(text):
        first, col = piece[0], pos - line_start + 1
        pos += len(piece)
        if first in " \t\r#":
            pass
        elif first == "\n":
            line, line_start = line + 1, pos
        elif first.isalpha() or first == "_":
            tokens.append(Token("name", piece, line, col))
        elif "0" <= first <= "9":
            if "/" in piece and not piece.partition("/")[2].strip("0"):
                raise LexError(f"zero denominator in {piece}", line, col)
            if max_digits and max(map(len, piece.split("/"))) > max_digits:
                raise LexError(f"number has more than {max_digits} digits", line, col)
            tokens.append(Token("number", piece, line, col))
        elif first in _SYMBOLS:
            tokens.append(Token("symbol", piece, line, col))
        else:
            raise LexError(f"unexpected character {first!r}", line, col)
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


class Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    # Symbol, name and number texts never coincide, so a token's text alone
    # says whether it is a given symbol or keyword.

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, text) -> bool:
        return self.tokens[self.pos].text == text

    def expect(self, text) -> Token:
        t = self.tokens[self.pos]
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t

    def label(self) -> str:
        t = self.tokens[self.pos]
        if t.kind != "name":
            raise ParseError(f"expected a name, found {t.text!r}", t.line, t.col)
        self.pos += 1
        return t.text

    def rational(self) -> str:
        t = self.peek()
        if t.kind != "number":
            raise ParseError(f"expected a number, found {t.text!r}", t.line, t.col)
        return self.advance().text

    def signed_number(self) -> str:
        if self.at("-"):
            self.advance()
            return "-" + self.rational()
        return self.rational()

    def unsigned_int(self) -> int:
        t = self.peek()
        if "/" in self.rational():
            raise ParseError("expected an integer", t.line, t.col)
        return int(t.text)

    def signed_int(self) -> int:
        if self.at("-"):
            self.advance()
            return -self.unsigned_int()
        return self.unsigned_int()

    def listed(self, open_, close, item) -> tuple:
        """`open [item {"," item}] close`, as a tuple of the items."""
        self.expect(open_)
        items = []
        if not self.at(close):
            items.append(item())
            while self.at(","):
                self.advance()
                items.append(item())
        self.expect(close)
        return tuple(items)

    def chain(self, symbol, operand, join):
        """`operand {symbol operand}`, folded to the left by `join(op, left, right)`."""
        left = operand()
        while self.at(symbol):
            op = self.advance()
            left = join(op, left, operand())
        return left

    def form(self, base):
        """The builtin form `name "(" arg {"," arg} ")"` at the next token, or
        None when the token names no form that builds a `base` node."""
        t = self.peek()
        node, roles = FORMS.get(t.text, (None, ()))
        if node is None or not issubclass(node, base):
            return None
        self.advance()
        self.expect("(")
        args = []
        for i, (_role, kind) in enumerate(roles):
            if i:
                self.expect(",")
            args.append(getattr(self, kind)())
        self.expect(")")
        return node(t.span, t.text, tuple(args))

    # -- grammar -----------------------------------------------------------

    def program(self) -> ast.Program:
        kw = self.expect("instance")
        iid = self.instance_name()
        items = []
        while self.peek().kind != "eof":
            items.append(self.item())
        return ast.Program(span=kw.span, instance_id=iid, items=tuple(items))

    def instance_name(self) -> str:
        t = self.peek()
        name = self.label()
        if name in ("finvect", "supervect", "rbord1"):
            return name
        if name == "graded":
            self.expect("(")
            self.expect("q")
            self.expect("=")
            q = self.signed_number()
            self.expect(")")
            return f"graded(q={q})"
        raise ParseError(f"unknown instance {name!r}", t.line, t.col)

    def item(self):
        t = self.peek()
        if t.text in _DECLS:
            return getattr(self, _DECLS[t.text])()
        if (command := self.form(ast.Command)) is not None:
            return command
        raise ParseError(f"expected a declaration or command, found {t.text!r}", t.line, t.col)

    def obj_decl(self) -> ast.ObjDecl:
        kw = self.expect("obj")
        name = self.label()
        self.expect("=")
        return ast.ObjDecl(span=kw.span, name=name, expr=self.objexpr())

    def mor_decl(self) -> ast.MorDecl:
        kw = self.expect("mor")
        name = self.label()
        self.expect(":")
        src = self.objexpr()
        self.expect("->")
        tgt = self.objexpr()
        self.expect("=")
        return ast.MorDecl(span=kw.span, name=name, src=src, tgt=tgt, literal=self.morlit())

    def triple_decl(self) -> ast.TripleDecl:
        kw = self.expect("triple")
        name = self.label()
        self.expect("=")
        return ast.TripleDecl(span=kw.span, name=name, expr=self.tripleexpr())

    # -- object expressions ---------------------------------------------------

    def objexpr(self) -> ast.ObjExpr:
        return self.chain("*", self.objatom, lambda op, a, b: ast.ObjTensor(op.span, a, b))

    def objatom(self) -> ast.ObjExpr:
        t = self.peek()
        if t.kind == "number":
            self.advance()
            if "/" in t.text:
                raise ParseError("dimension must be an integer", t.line, t.col)
            return ast.ObjInt(span=t.span, dim=int(t.text))
        if self.at("("):
            self.advance()
            inner = self.objexpr()
            self.expect(")")
            return inner
        if t.kind != "name":
            raise ParseError(f"expected an object expression, found {t.text!r}", t.line, t.col)
        if (node := self.form(ast.ObjExpr)) is not None:
            return node
        self.advance()
        if t.text == "I":
            return ast.ObjUnit(span=t.span)
        if t.text == "graded":
            return ast.ObjGraded(span=t.span, entries=self.listed("{", "}", self.graded_entry))
        if t.text == "pts":
            return ast.ObjPts(span=t.span, labels=self.listed("{", "}", self.label))
        return ast.ObjName(span=t.span, name=t.text)

    def graded_entry(self) -> tuple:
        deg = self.signed_int()
        self.expect(":")
        return (deg, self.unsigned_int())

    # -- morphism literals -------------------------------------------------------

    def morlit(self):
        t = self.peek()
        if self.at("["):
            return ast.MatrixLit(span=t.span, rows=self.listed("[", "]", self.matrix_row))
        if self.at("bord"):
            self.advance()
            return ast.BordLit(span=t.span, entries=self.listed("{", "}", self.bord_entry))
        if self.at("iso"):
            self.advance()
            return ast.IsoLit(span=t.span, pairs=self.listed("{", "}", self.iso_pair))
        raise ParseError(f"expected a morphism literal, found {t.text!r}", t.line, t.col)

    def matrix_row(self) -> tuple:
        return self.listed("[", "]", self.signed_number)

    def bord_entry(self) -> ast.BordEntry:
        if self.at("loop"):
            kind, a, b = self.advance().text, "", ""
        elif self.at("cap") or self.at("cup"):
            kind, a, b = self.advance().text, self.label(), self.label()
        else:
            kind, a = "arc", self.label()
            self.expect("->")
            b = self.label()
        self.expect(":")
        return ast.BordEntry(kind=kind, a=a, b=b, length=self.rational())

    def iso_pair(self) -> tuple:
        a = self.label()
        self.expect("->")
        return (a, self.label())

    # -- terms ----------------------------------------------------------------------

    def term(self) -> ast.Term:
        # diagrammatic order: the left factor executes first
        return self.chain(";", self.tensor_term,
                          lambda op, a, b: ast.Compose(op.span, after=b, before=a))

    def tensor_term(self) -> ast.Term:
        return self.chain("*", self.atom, lambda op, a, b: ast.Tensor(op.span, a, b))

    def atom(self) -> ast.Term:
        t = self.peek()
        if self.at("("):
            self.advance()
            inner = self.term()
            self.expect(")")
            return ast.Paren(span=t.span, inner=inner)
        if t.kind != "name":
            raise ParseError(f"expected a term, found {t.text!r}", t.line, t.col)
        if (node := self.form(ast.Term)) is not None:
            return node
        self.advance()
        return ast.Gen(span=t.span, name=t.text)

    def tripleexpr(self) -> ast.TripleExpr:
        if (node := self.form(ast.TripleExpr)) is not None:
            return node
        t = self.peek()
        return ast.TripleName(span=t.span, name=self.label())


def parse(text: str) -> ast.Program:
    return Parser(tokenize(text)).program()
