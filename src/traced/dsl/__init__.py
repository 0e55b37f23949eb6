"""Textual diagram language: lexer, parser, type checker, evaluator.

Files use the .diag extension and start with an instance header; `;` chains
diagrams left-to-right (the left factor runs first) and `*` tensors, with
`*` binding tighter.  `traced eval FILE.diag` exits 0 iff every
assert_equal in the file holds, 1 if one fails, and 2 if the file cannot be
read, the program is rejected or it is nested too deeply to check.
"""

from .ast import Program
from .evaluate import AssertResult, EvalReport, PrintResult, evaluate, render_value
from .parser import parse, tokenize
from .pretty import pretty
from .typecheck import TypedProgram, typecheck

__all__ = [
    "Program",
    "TypedProgram",
    "EvalReport",
    "PrintResult",
    "AssertResult",
    "tokenize",
    "parse",
    "typecheck",
    "evaluate",
    "pretty",
    "render_value",
    "run_text",
]


def run_text(text: str) -> EvalReport:
    """Parse, typecheck and evaluate a program given as source text."""
    return evaluate(typecheck(parse(text)))
