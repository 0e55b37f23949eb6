"""Seeded random generators for objects, morphisms, triples and bordisms.

Determinism contract: every suite trial draws from its own stream derived
from (seed, suite id, trial index), so identical configs produce identical
values regardless of execution order or parallelism.  The generator is a
self-contained splitmix64 to keep byte-identical behaviour across Python
versions.

Entries are kept small (numerators in [-3, 3], denominators in [1, 3]) and
dimensions/degrees bounded by the config, which keeps exact arithmetic
growth under control.
"""

from __future__ import annotations

import hashlib
from math import lcm

from .core import ObjectRef
from .matrices import RatMatrix
from .thickened import ThickTriple
from ._rat import rat

MASK = (1 << 64) - 1


class Stream:
    """splitmix64; deterministic across platforms and Python versions."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform on the inclusive range [lo, hi]."""
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(0, i)
            out[i], out[j] = out[j], out[i]
        return out

    def chance(self, num: int, den: int) -> bool:
        return self.randint(1, den) <= num

    def fraction(self):
        num = self.randint(-3, 3)
        return rat(num, self.randint(1, 3))


def trial_stream(seed: int, suite_id: str, trial: int) -> Stream:
    digest = hashlib.sha256(f"{seed}:{suite_id}:{trial}".encode()).digest()
    return Stream(int.from_bytes(digest[:8], "big"))


def _fresh_label(rng: Stream, prefix: str) -> str:
    return f"{prefix}{rng.randint(0, 99999):05d}"


# -- objects -------------------------------------------------------------------


def gen_object(inst, rng: Stream, max_dim: int = 4, max_degree: int = 4) -> ObjectRef:
    iid = inst.instance_id
    if iid == "finvect":
        return inst.space(rng.randint(1, max_dim))
    if iid == "supervect":
        even = rng.randint(0, max_dim // 2 + 1)
        odd = rng.randint(0, max_dim // 2 + 1)
        if even + odd == 0:
            even = 1
        return inst.space(even, odd)
    if iid.startswith("graded"):
        degrees = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(-max_degree, max_degree)
            degrees.extend([d] * rng.randint(1, 2))
        return inst.obj(sorted(degrees[: max(1, max_dim)]))
    raise KeyError(f"no object generator for {iid!r}")


def gen_point_set(inst, rng: Stream, size: int, prefix: str = "p") -> ObjectRef:
    labels = set()
    while len(labels) < size:
        labels.add(_fresh_label(rng, prefix))
    return inst.points(sorted(labels))


# -- morphisms -----------------------------------------------------------------


def gen_matrix_mor(inst, x: ObjectRef, y: ObjectRef, rng: Stream, density: int = 70):
    """Random degree-preserving sparse matrix with small rational entries.

    Draws exactly as rng.chance(density, 100) followed by rng.fraction() per
    degree-matching entry, but keeps each entry as an integer pair and puts
    the nonzero ones over the lcm of their denominators."""
    sdeg, tdeg = x.payload, y.payload
    randint = rng.randint
    pairs = {}
    for i, a in enumerate(tdeg):
        for j, b in enumerate(sdeg):
            if a == b and randint(1, 100) <= density:
                n = randint(-3, 3)
                d = randint(1, 3)
                if n:
                    pairs[(i, j)] = (n, d)
    den = lcm(*[d for _, d in pairs.values()])
    num = {k: n * (den // d) for k, (n, d) in pairs.items()}
    return inst.mor(x, y, RatMatrix(len(tdeg), len(sdeg), num, den))


def gen_bordism(inst, x: ObjectRef, y: ObjectRef, rng: Stream,
                integer: bool = False, directed: bool = False,
                max_circles: int = 1):
    """Random bordism X -> Y: a random perfect matching of the boundary with
    random positive lengths, plus an occasional free circle.  With
    directed=True every arc joins an in-point to an out-point (|X| = |Y|)."""
    from .bordism import IN, OUT

    def length():
        if integer:
            return rat(rng.randint(1, 5))
        return rat(rng.randint(1, 6), rng.randint(1, 3))

    points = [(IN, p) for p in x.payload] + [(OUT, p) for p in y.payload]
    arcs = []
    if directed:
        if len(x.payload) != len(y.payload):
            raise ValueError("directed bordisms need |X| = |Y|")
        targets = rng.shuffle(y.payload)
        for p, q in zip(x.payload, targets):
            arcs.append(((IN, p), (OUT, q), length()))
    else:
        if len(points) % 2:
            raise ValueError("boundary must have even size for a perfect matching")
        order = rng.shuffle(points)
        for i in range(0, len(order), 2):
            arcs.append((order[i], order[i + 1], length()))
    circles = [length() for _ in range(rng.randint(0, max_circles))]
    return inst.bord_mor(x, y, arcs, circles)


def gen_morphism(inst, x: ObjectRef, y: ObjectRef, rng: Stream):
    iid = inst.instance_id
    if iid == "rbord1":
        if len(x.payload) == len(y.payload) and rng.chance(1, 4):
            perm = rng.shuffle(y.payload)
            return inst.iso_mor(x, y, dict(zip(x.payload, perm)))
        if (len(x.payload) + len(y.payload)) % 2:
            raise ValueError("odd total boundary; no bordism exists")
        return gen_bordism(inst, x, y, rng)
    return gen_matrix_mor(inst, x, y, rng)


# -- triples ---------------------------------------------------------------------


def gen_z_object(inst, x: ObjectRef, y: ObjectRef, rng: Stream,
                 max_dim: int = 4, max_degree: int = 4,
                 z_prefix: str = "z") -> ObjectRef:
    """A thickening object compatible with (X, Y); in the bordism instance
    the parity of |Z| is forced by the boundary matchings.  Callers that
    build several triples destined for one composite must pass distinct
    z prefixes so the label namespaces stay disjoint."""
    if inst.instance_id == "rbord1":
        size = rng.randint(0, max_dim)
        if (size + len(y.payload)) % 2:
            size += 1
        if (size + len(x.payload)) % 2:
            raise ValueError("no Z gives both t and b a perfect matching")
        return gen_point_set(inst, rng, size, prefix=z_prefix)
    return gen_object(inst, rng, max_dim=max_dim, max_degree=max_degree)


def gen_triple(inst, x: ObjectRef, y: ObjectRef, rng: Stream,
               max_dim: int = 4, max_degree: int = 4,
               z_prefix: str = "z") -> ThickTriple:
    unit = inst.unit_object()
    z = gen_z_object(inst, x, y, rng, max_dim=max_dim, max_degree=max_degree,
                     z_prefix=z_prefix)
    if inst.instance_id == "rbord1":
        t = gen_bordism(inst, unit, inst.tensor_obj(y, z), rng, max_circles=0)
        b = gen_bordism(inst, inst.tensor_obj(z, x), unit, rng, max_circles=0)
    else:
        t = gen_matrix_mor(inst, unit, inst.tensor_obj(y, z), rng)
        b = gen_matrix_mor(inst, inst.tensor_obj(z, x), unit, rng)
    return ThickTriple(dom=x, cod=y, z=z, t=t, b=b)


def gen_endo_pair(inst, rng: Stream, max_dim: int = 4, max_degree: int = 4):
    """(X, random endomorphism-shaped triple over X)."""
    if inst.instance_id == "rbord1":
        x = gen_point_set(inst, rng, rng.randint(0, max_dim), prefix="x")
    else:
        x = gen_object(inst, rng, max_dim=max_dim, max_degree=max_degree)
    return x, gen_triple(inst, x, x, rng, max_dim=max_dim, max_degree=max_degree)
