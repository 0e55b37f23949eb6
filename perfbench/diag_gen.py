"""Seeded `.diag` programs, each asserting one instance of a theorem.

Every program is emitted in the pretty-printer's canonical layout, so
`pretty(parse(text)) == text` is part of its known answer, and every
`assert_equal` in it holds by a theorem of the calculus (or, for composed
lengths, by arithmetic done here with `fractions`, not by the library).
The known answer of every generated program is therefore "all assertions
hold"; nothing here asks the code under test what the answer should be.

Objects stay tiny (dimension at most 4, at most two points), so these
programs measure the DSL front end, label/arc gluing and per-call overhead
rather than matrix arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

MATRIX_INSTANCES = ("finvect", "supervect", "graded(q=2)", "graded(q=3)", "graded(q=3/2)")


def _rat_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _matrix_object(rng: random.Random, inst: str):
    """(literal text, basis degrees in basis order) of a small object."""
    if inst == "finvect":
        n = rng.randint(1, 3)
        return str(n), [0] * n
    if inst == "supervect":
        even = rng.randint(0, 2)
        odd = rng.randint(0 if even else 1, 3 - even)
        return f"super({even}, {odd})", [0] * even + [1] * odd
    degrees = sorted(rng.sample(range(-2, 3), rng.randint(1, 2)))
    dims = [rng.randint(1, 3 - len(degrees) + 1) for _ in degrees]
    text = "graded{" + ", ".join(f"{d}: {n}" for d, n in zip(degrees, dims)) + "}"
    return text, [d for d, n in zip(degrees, dims) for _ in range(n)]


def _matrix_literal(rng: random.Random, src, tgt) -> str:
    """Random degree-preserving matrix tgt x src with small rational entries."""
    rows = []
    for dt in tgt:
        row = []
        for ds in src:
            v = Fraction(0)
            if dt == ds and rng.random() < 0.75:
                v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            row.append(_rat_text(v))
        rows.append("[" + ", ".join(row) + "]")
    return "[" + ", ".join(rows) + "]"


def _length(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))


def _points(prefix: str, n: int):
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def _pts(labels) -> str:
    return "pts{" + ", ".join(labels) + "}"


def _directed_bord(rng: random.Random, src, tgt, loops: int = 0):
    """(literal text, {src label: (tgt label, length)}) of a bordism whose
    arcs each run from an in-point to an out-point."""
    perm = list(tgt)
    rng.shuffle(perm)
    arcs = {a: (b, _length(rng)) for a, b in zip(src, perm)}
    parts = [f"{a}->{b} : {_rat_text(l)}" for a, (b, l) in arcs.items()]
    parts += [f"loop: {_rat_text(_length(rng))}" for _ in range(loops)]
    return "bord{" + ", ".join(parts) + "}", arcs


def _program_pairing(rng, inst):
    x, xd = _matrix_object(rng, inst)
    y, yd = _matrix_object(rng, inst)
    return [
        f"instance {inst}",
        f"obj X = {x}",
        f"obj Y = {y}",
        f"mor f : X -> Y = {_matrix_literal(rng, xd, yd)}",
        f"mor g : Y -> X = {_matrix_literal(rng, yd, xd)}",
        "assert_equal(pairing(f, g), pairing(g, f))",
    ]


def _program_zigzag(rng, inst):
    x, _ = _matrix_object(rng, inst)
    return [
        f"instance {inst}",
        f"obj X = {x}",
        "assert_equal(coev(X) * id(X) ; id(X) * ev(X), id(X))",
        "assert_equal(id(dual(X)) * coev(X) ; ev(X) * id(dual(X)), id(dual(X)))",
    ]


def _program_interchange(rng, inst):
    objs = [_matrix_object(rng, inst) for _ in range(6)]
    lines = [f"instance {inst}"]
    lines += [f"obj {n} = {text}" for n, (text, _) in zip("ABCDEF", objs)]
    deg = {n: d for n, (_, d) in zip("ABCDEF", objs)}
    for name, (s, t) in zip("fghk", (("A", "B"), ("B", "C"), ("D", "E"), ("E", "F"))):
        lines.append(f"mor {name} : {s} -> {t} = {_matrix_literal(rng, deg[s], deg[t])}")
    lines.append("assert_equal((f ; g) * (h ; k), f * h ; g * k)")
    return lines


def _program_cut(rng, _inst):
    labels = _points("x", rng.randint(1, 2))
    sigma, _ = _directed_bord(rng, labels, labels, loops=rng.randint(0, 1))
    r1, r2 = (Fraction(rng.randint(1, d - 1), d) for d in (rng.randint(2, 9), rng.randint(2, 9)))
    return [
        "instance rbord1",
        f"obj X = {_pts(labels)}",
        f"mor sigma : X -> X = {sigma}",
        f"assert_equal(trace_hat(cut(sigma, {_rat_text(r1)})), trace_hat(cut(sigma, {_rat_text(r2)})))",
    ]


def _program_lengths(rng, _inst):
    n = rng.randint(1, 2)
    w, x, y = _points("w", n), _points("x", n), _points("y", n)
    a, arcs_a = _directed_bord(rng, w, x)
    b, arcs_b = _directed_bord(rng, x, y)
    parts = []
    for p in w:
        mid, la = arcs_a[p]
        end, lb = arcs_b[mid]
        parts.append(f"{p}->{end} : {_rat_text(la + lb)}")
    return [
        "instance rbord1",
        f"obj W = {_pts(w)}",
        f"obj X = {_pts(x)}",
        f"obj Y = {_pts(y)}",
        f"mor a : W -> X = {a}",
        f"mor b : X -> Y = {b}",
        "mor expect : W -> Y = bord{" + ", ".join(parts) + "}",
        "assert_equal(a ; b, expect)",
    ]


def _program_bord_pairing(rng, _inst):
    n = rng.randint(1, 2)
    x, y = _points("x", n), _points("y", n)
    a, _ = _directed_bord(rng, x, y)
    b, _ = _directed_bord(rng, y, x)
    return [
        "instance rbord1",
        f"obj X = {_pts(x)}",
        f"obj Y = {_pts(y)}",
        f"mor a : X -> Y = {a}",
        f"mor b : Y -> X = {b}",
        "assert_equal(pairing(a, b), pairing(b, a))",
    ]


_BUILDERS = {
    "pairing": _program_pairing,
    "zigzag": _program_zigzag,
    "interchange": _program_interchange,
    "cut": _program_cut,
    "lengths": _program_lengths,
    "bord_pairing": _program_bord_pairing,
}
KINDS = tuple(_BUILDERS)


def generate(seed: int, count: int):
    """`count` programs as (name, text), cycling through the theorem kinds;
    matrix theorems draw their instance from MATRIX_INSTANCES."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        inst = rng.choice(MATRIX_INSTANCES)
        lines = _BUILDERS[kind](rng, inst)
        out.append((f"gen{i:03d}_{kind}", "\n".join(lines) + "\n"))
    return out
