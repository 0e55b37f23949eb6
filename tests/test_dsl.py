import dataclasses
import hashlib
import json
import pathlib
import random
import re

import pytest

from traced import canonical_thickener, get_instance, rat, rat_str, tr_hat, trace_pairing
from traced.dsl import ast, evaluate, parse, pretty, render_value, run_text, tokenize, typecheck
from traced.dsl.parser import FORMS
from traced.errors import LexError, ParseError, TracedError, TypecheckError

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "src" / "traced" / "data" / "corpus"


def corpus_texts():
    return sorted(CORPUS.glob("*.diag"))


def test_corpus_has_fifty_programs():
    assert len(corpus_texts()) == 50


@pytest.mark.parametrize("path", corpus_texts(), ids=lambda p: p.stem)
def test_corpus_roundtrip_and_eval(path):
    text = path.read_text()
    prog = parse(text)
    assert pretty(prog) == text
    report = run_text(text)
    assert report.ok


def test_parse_reparse_fixed_point():
    for path in corpus_texts():
        text = path.read_text()
        assert pretty(parse(pretty(parse(text)))) == text


def test_diagrammatic_order():
    prog = parse("instance finvect\nobj X = 2\n"
                 "mor f : X -> X = [[1, 0], [0, 1]]\nprint(id(X) ; f)\n")
    cmd = prog.items[-1]
    assert isinstance(cmd.args[0], ast.Compose)
    before = cmd.args[0].before
    assert isinstance(before, ast.Form) and before.name == "id"  # id runs first
    assert isinstance(cmd.args[0].after, ast.Gen)


def test_precedence_tensor_binds_tighter():
    prog = parse("instance finvect\nobj X = 2\n"
                 "mor f : X -> X = [[1, 0], [0, 1]]\n"
                 "mor g : X -> X = [[1, 0], [0, 1]]\n"
                 "mor h : X * X -> X * X = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
                 "print(f * g ; h)\n")
    term = prog.items[-1].args[0]
    assert isinstance(term, ast.Compose)
    assert isinstance(term.before, ast.Tensor)
    assert isinstance(term.after, ast.Gen)


def test_unbalanced_bracket_position():
    with pytest.raises(ParseError) as err:
        parse("instance finvect\nobj X = (3\n")
    assert err.value.line == 3 and err.value.col == 1


def test_lex_error_position():
    with pytest.raises(LexError) as err:
        tokenize("instance finvect\nobj X = @\n")
    assert (err.value.line, err.value.col) == (2, 9)


def test_type_error_names_objects():
    with pytest.raises(TypecheckError) as err:
        typecheck(parse("instance finvect\nobj X = 2\nmor u : I -> I = [[1]]\n"
                        "print(coev(X) ; u)\n"))
    msg = str(err.value)
    assert "left ends at" in msg and "right starts at" in msg


def test_ev_coev_shape_mismatch_in_graded():
    """X (x) X* and X* (x) X interleave degrees differently once X is
    inhomogeneous, so chaining coev into ev is a type error that names
    both shapes."""
    with pytest.raises(TypecheckError) as err:
        typecheck(parse("instance graded(q=2)\nobj X = graded{1: 1, 2: 1}\n"
                        "print(coev(X) ; ev(X))\n"))
    msg = str(err.value)
    assert "left ends at" in msg and "right starts at" in msg


def test_capability_errors():
    with pytest.raises(TypecheckError, match="not braided"):
        typecheck(parse("instance rbord1\nobj X = pts{x}\nobj Y = pts{y}\nprint(c(X, Y))\n"))
    with pytest.raises(TypecheckError, match="no duals"):
        typecheck(parse("instance rbord1\nobj X = pts{x}\nprint(ev(X))\n"))
    # theta typechecks in the symmetric instance (identity twist)
    typecheck(parse("instance finvect\nobj X = 2\nprint(theta(X))\n"))


@pytest.mark.parametrize("body, position, message", [
    ("print(theta(X))\n", (3, 7), "instance 'rbord1' is not balanced"),
    ("obj Y = dual(X)\n", (3, 9), "instance 'rbord1' has no duals"),
    ("print(coev(X))\n", (3, 7), "instance 'rbord1' has no duals"),
    ("mor f : X -> X = bord{x->x : 1}\nprint(trace_hat(thicken(f)))\n", (4, 17),
     "thicken needs duals; instance 'rbord1' has none"),
    ("print(c(X, X))\n", (3, 7), "instance 'rbord1' is not braided"),
], ids=["theta", "dual", "coev", "thicken", "c"])
def test_rbord1_capability_errors(body, position, message):
    """rbord1 has no twist, duals or braiding; each use is a type error at
    the position of the form that needs it."""
    with pytest.raises(TypecheckError) as err:
        typecheck(parse("instance rbord1\nobj X = pts{x}\n" + body))
    assert (err.value.line, err.value.col) == position
    assert err.value.message == message


def test_trace_hat_requires_endo_shape():
    with pytest.raises(TypecheckError, match="endomorphism"):
        typecheck(parse("instance rbord1\nobj X = pts{x}\nobj Y = pts{y}\n"
                        "mor f : X -> Y = bord{x->y : 1}\n"
                        "print(trace_hat(cut(f, 1/2)))\n"))


def test_pairing_shape_check():
    with pytest.raises(TypecheckError, match="opposite shapes"):
        typecheck(parse("instance finvect\nobj X = 2\nobj Y = 3\n"
                        "mor f : X -> Y = [[0, 0], [0, 0], [0, 0]]\n"
                        "print(pairing(f, f))\n"))


def test_s_with_dual_infers_types():
    """s(X, dual(X)) is typed X * dual(X) -> dual(X) * X: assert_equal takes
    it against c(X, dual(X)) and names both inferred types when it refuses."""
    decl = "instance graded(q=2)\nobj X = graded{0: 1, 1: 1}\n"
    typecheck(parse(decl + "assert_equal(s(X, dual(X)), c(X, dual(X)))\n"))
    for other, types in (("s(dual(X), X)", "(0, 1, -1, 0) -> (0, -1, 1, 0)"),
                         ("id(X * dual(X))", "(0, -1, 1, 0) -> (0, -1, 1, 0)")):
        with pytest.raises(TypecheckError) as err:
            typecheck(parse(decl + f"assert_equal(s(X, dual(X)), {other})\n"))
        assert str(err.value) == ("3:1: assert_equal compares a morphism"
                                  f" (0, -1, 1, 0) -> (0, 1, -1, 0) with one {types}")


def test_duplicate_binding_rejected():
    with pytest.raises(TypecheckError, match="already bound"):
        typecheck(parse("instance finvect\nobj X = 2\nobj X = 3\n"))


def test_unknown_names():
    with pytest.raises(TypecheckError, match="unknown morphism"):
        typecheck(parse("instance finvect\nprint(nope)\n"))
    with pytest.raises(TypecheckError, match="unknown object"):
        typecheck(parse("instance finvect\nprint(id(X))\n"))


def test_comments_and_whitespace():
    report = run_text("instance finvect  # header\n"
                      "obj X = 2   # two dimensions\n"
                      "# a standalone comment\n"
                      "assert_equal(id(X), id(X))\n")
    assert report.ok


def test_graded_header_with_fraction():
    report = run_text("instance graded(q=3/2)\nobj L = graded{1: 1}\n"
                      "mor e : L * L -> L * L = [[3/2]]\nassert_equal(c(L, L), e)\n")
    assert report.ok


def test_failed_assert_reported():
    report = run_text("instance finvect\nobj X = 2\n"
                      "mor two : I -> I = [[2]]\nmor three : I -> I = [[3]]\n"
                      "assert_equal(two, three)\n")
    assert not report.ok
    result = report.results[0]
    assert result.left == "2" and result.right == "3"


def test_oracle_equivalence_spot_checks():
    """Evaluator output must agree with direct API computation."""
    fv = get_instance("finvect")
    x = fv.space(4)
    f = fv.mor(x, x, [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    expect = fv.scalar_value(tr_hat(canonical_thickener(f)))
    report = run_text(
        "instance finvect\nobj X = 4\n"
        "mor f : X -> X = [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]\n"
        "print(trace_hat(thicken(f)))\n"
    )
    assert report.results[0].text == rat_str(expect)

    from traced import rat

    rb = get_instance("rbord1")
    f1 = rb.interval("x", "y", 1)
    g1 = rb.interval("y", "x", 2)
    api = trace_pairing(rb.cut_thickener(f1, rat(1, 2)), g1)
    report = run_text(
        "instance rbord1\nobj X = pts{x}\nobj Y = pts{y}\n"
        "mor a : X -> Y = bord{x->y : 1}\nmor b : Y -> X = bord{y->x : 2}\n"
        "print(pairing(a, b))\n"
    )
    from traced.dsl import render_value

    assert report.results[0].text == render_value(rb, api)


def _rbord1_cut_triple():
    rb = get_instance("rbord1")
    return rb, tr_hat(rb.cut_thickener(rb.interval("x", "x", rat(5)), rat(1, 3)))


def _finvect_thickened_triple():
    fv = get_instance("finvect")
    x = fv.space(2)
    return fv, tr_hat(canonical_thickener(fv.mor(x, x, [[1, 2], [3, 4]])))


TRIPLE_PROGRAMS = {
    "rbord1-cut": ("instance rbord1\nobj X = pts{x}\nmor f : X -> X = bord{x->x : 5}\n"
                   "triple T = cut(f, 1/3)\n", "cut(f, 1/3)", _rbord1_cut_triple),
    "finvect-thicken": ("instance finvect\nobj X = 2\nmor f : X -> X = [[1, 2], [3, 4]]\n"
                        "triple T = thicken(f)\n", "thicken(f)", _finvect_thickened_triple),
}


@pytest.mark.parametrize("key", TRIPLE_PROGRAMS)
def test_triple_declaration_end_to_end(key):
    """A `triple` binding evaluates like the API call, like the expression
    written in place, round-trips through pretty, and evaluates repeatably."""
    decls, expr, api = TRIPLE_PROGRAMS[key]
    text = decls + f"print(trace_hat(T))\nassert_equal(trace_hat(T), trace_hat({expr}))\n"
    assert pretty(parse(text)) == text
    tp = typecheck(parse(text))
    report = evaluate(tp)
    inst, expect = api()
    assert report.results[0].text == render_value(inst, expect)
    assert report.ok
    assert evaluate(tp) == report


@pytest.mark.parametrize("key", TRIPLE_PROGRAMS)
def test_triple_names_unknown_or_rebound_are_positioned(key):
    decls, expr, _api = TRIPLE_PROGRAMS[key]
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(decls + "print(trace_hat(U))\n"))
    assert str(err.value) == "5:17: unknown triple 'U'"
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(decls + f"triple T = {expr}\n"))
    assert str(err.value) == "5:1: name 'T' is already bound"


def test_corpus_instances_covered():
    headers = {p.read_text().splitlines()[0] for p in corpus_texts()}
    assert "instance finvect" in headers
    assert "instance supervect" in headers
    assert "instance rbord1" in headers
    assert any(h.startswith("instance graded(") for h in headers)


@pytest.mark.parametrize("text, message", [
    pytest.param("instance rbord1\nobj X = pts{x, x}\n",
                 "2:9: duplicate point labels in ('x', 'x')", id="object"),
    pytest.param("instance rbord1\nobj X = pts{x}\nobj Y = X * X\n",
                 "3:11: label collision in disjoint union: ('x',) + ('x',)", id="object-tensor"),
    # an object inside a term keeps the object's own position
    pytest.param("instance rbord1\nprint(id(pts{y, y}))\n",
                 "2:10: duplicate point labels in ('y', 'y')", id="object-in-term"),
    pytest.param("instance rbord1\nobj X = pts{x}\nmor f : X -> X = bord{x->x : 0}\n",
                 "3:18: arc length must be positive, got 0", id="literal"),
    pytest.param("instance finvect\nobj X = 2\nmor X : X -> X = [[1, 0], [0, 1]]\n",
                 "3:1: name 'X' is already bound", id="item"),
    pytest.param("instance rbord1\nobj X = pts{x}\nprint(s(X, X))\n",
                 "3:7: label collision in disjoint union: ('x',) + ('x',)", id="term"),
    # a nested DSL error keeps its own position
    pytest.param("instance finvect\nobj X = 2\nprint(id(X) ; nope)\n",
                 "3:15: unknown morphism 'nope'", id="nested-term"),
])
def test_instance_errors_carry_the_term_position(text, message):
    """An error is placed at the innermost object expression, literal, item
    or term whose check raised it."""
    with pytest.raises(TypecheckError) as err:
        typecheck(parse(text))
    assert str(err.value) == message


def test_every_builtin_form_is_in_the_grammar_with_its_arguments():
    ebnf = (ROOT / "docs" / "grammar.ebnf").read_text()
    nonterminal = {"objexpr": "objexpr", "term": "term", "tripleexpr": "tripleexpr",
                   "unsigned_int": "INT", "rational": "rational"}
    for name, (_node, fields) in FORMS.items():
        match = re.search(rf'"{name}", "\(", (.*?), "\)"', ebnf)
        assert match, name
        assert match.group(1).split(', ",", ') == [nonterminal[kind] for _f, kind in fields]


def form_nodes(node):
    """Every builtin-form node in a parsed program, in any position."""
    if isinstance(node, (ast.Form, ast.ObjForm, ast.TripleForm, ast.Command)):
        yield node
    if isinstance(node, tuple):
        for part in node:
            yield from form_nodes(part)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from form_nodes(getattr(node, f.name))


def test_every_form_is_in_the_corpus_as_the_node_its_entry_names():
    """Each FORMS name, the two commands included, occurs in some corpus
    program, and every occurrence parses to the node class of its entry with
    one argument per role."""
    built = {}
    for path in corpus_texts():
        for node in form_nodes(parse(path.read_text())):
            built.setdefault(node.name, set()).add(type(node))
            assert len(node.args) == len(FORMS[node.name][1]), (path.stem, node)
    assert built == {name: {node} for name, (node, _roles) in FORMS.items()}


def test_a_binding_named_like_a_command_is_not_a_command():
    """An item is a command by its node class, not by its name: a morphism
    named `assert_equal` and a triple named `print` stay bindings."""
    report = run_text("instance finvect\nobj X = 2\nmor assert_equal : X -> X = [[2, 0], [0, 2]]\n"
                      "triple print = thicken(assert_equal)\nprint(trace_hat(print))\n")
    assert [(type(r).__name__, r.text) for r in report.results] == [("PrintResult", "4")]


# Replacements keep a token's kind, so that many mutants get past the parser.
# No integer above 2: allocation limits are a separate concern.
FUZZ_REPLACEMENTS = {
    "number": ("0", "1", "2", "1/2", "1/0", "\u00b2", "- 1"),
    "name": ("q=1", "X", "x", "I", "id", "s", "c", "theta", "ev", "coev", "trace_hat",
             "pairing", "cut", "thicken", "dual", "super", "graded", "pts", "bord", "iso",
             "loop", "cap", "cup"),
    "symbol": ("->", "(", ")", "{", "}", "[", "]", ",", ":", ";", "*", "=", "-"),
}


def token_mutants(seed, per_program):
    """Corpus programs with one token deleted, duplicated or replaced."""
    rng = random.Random(seed)
    for path in corpus_texts():
        tokens = tokenize(path.read_text())[:-1]
        words = [t.text for t in tokens]
        for _ in range(per_program):
            i = rng.randrange(len(words))
            op = rng.randrange(3)
            if op == 0:
                mutant = words[:i] + words[i + 1:]
            elif op == 1:
                mutant = words[:i + 1] + words[i:]
            else:
                mutant = words[:i] + [rng.choice(FUZZ_REPLACEMENTS[tokens[i].kind])] + words[i + 1:]
            yield " ".join(mutant)


def test_token_mutants_evaluate_or_raise_traced_error():
    outcomes = set()
    for text in token_mutants(seed=7, per_program=40):
        try:
            run_text(text)
            outcomes.add("evaluated")
        except TracedError as exc:
            outcomes.add(type(exc).__name__)
    # the mutants reach every stage, not only the parser
    assert {"evaluated", "LexError", "ParseError", "TypecheckError"} <= outcomes


# sha256 of the outcome of every mutant of token_mutants(seed=7, per_program=40)
TOKEN_MUTANT_OUTCOMES_SHA256 = "59160a9be1c7df670043be36b9197a304388fc29d12b6f3cec1e84f7476b9dfc"


def test_token_mutant_outcomes_are_pinned():
    """Each mutant's outcome, the error type with its positioned message or
    the rendered print and assert results, hashes to a constant.  The other
    tests check a few messages by hand; this catches a change to the text or
    position of any diagnostic the mutants reach.  It was re-recorded when
    a graded q of 0 got its own message; one mutant, whose header reads
    q=0, changed row."""
    rows = []
    for text in token_mutants(seed=7, per_program=40):
        try:
            report = run_text(text)
        except TracedError as exc:
            rows.append([type(exc).__name__, str(exc)])
        else:
            rows.append([[type(r).__name__, *dataclasses.astuple(r)] for r in report.results])
    assert len(rows) == 2000
    text = json.dumps(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == TOKEN_MUTANT_OUTCOMES_SHA256
