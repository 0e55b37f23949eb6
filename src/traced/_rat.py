"""Exact rational scalar type.

`rat` is fractions.Fraction.  It prints as "p/q" (or "p" for integers) and
supports negative integer powers, which is all the rest of the package
relies on.  Matrix arithmetic does not use it: `RatMatrix` stores integer
numerators over one common denominator, and `rat` only appears where a
scalar crosses the API, serde or DSL boundary.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction as rat

# The form `rat_str` writes: ASCII digits, an optional sign, no exponent.
_RAT = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def rat_str(x) -> str:
    """Canonical string form: "p" or "p/q" with q > 0.  An int past Python's
    limit on int-to-str digits is written through Decimal, which has none."""
    try:
        return str(x)
    except ValueError:
        x = rat(x)
        p, q = Decimal(x.numerator), Decimal(x.denominator)
        return f"{p}" if q == 1 else f"{p}/{q}"


def parse_rat(text: str):
    """Parse "p" or "p/q" (surrounding blanks allowed) into an exact
    rational.  Anything else raises ValueError, so an exponent such as
    "1e999999999" is refused before any digit is computed."""
    m = _RAT.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational of the form p or p/q: {text!r}")
    return rat(int(m[1]), int(m[2] or 1))
