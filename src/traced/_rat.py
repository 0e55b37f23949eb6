"""Exact rational scalar type.

`rat` is fractions.Fraction.  It prints as "p/q" (or "p" for integers) and
supports negative integer powers, which is all the rest of the package
relies on.  Matrix arithmetic does not use it: `RatMatrix` stores integer
numerators over one common denominator, and `rat` only appears where a
scalar crosses the API, serde or DSL boundary.
"""

from __future__ import annotations

from fractions import Fraction as rat


def rat_str(x) -> str:
    """Canonical string form: "p" or "p/q" with q > 0."""
    return str(x)


def parse_rat(text: str):
    """Parse "p" or "p/q" into an exact rational."""
    return rat(text.strip())
