"""JSON (de)serialization of suite inputs, for the counterexamples in suite
reports (`--replay`) and the pinned regression inputs shipped with the
package.  Suites also draw objects and triples, but the suite codec
(`suites.encode`) stores those as morphisms: an object as its identity, a
triple as its t, its b and the identity of its Z.  So a stored value is a
morphism, a rational or a corpus string, of one of five kinds:
`matrix-mor`, `iso-mor`, `bord-mor`, `rat` (a "p/q" string) and `str`.
`iso-mor` is how an rbord1 morphism whose strands are all thin, an
isometry, is written: its label mapping alone.  Any other value or kind
raises TypeError.
"""

from __future__ import annotations

from .core import Morphism, get_instance
from .matrices import RatMatrix
from ._rat import parse_rat, rat, rat_str


def dump_value(v):
    if isinstance(v, Morphism):
        return _dump_morphism(v)
    if isinstance(v, str):
        return {"kind": "str", "value": v}
    if isinstance(v, rat):
        return {"kind": "rat", "value": rat_str(v)}
    raise TypeError(f"cannot serialize a {type(v).__name__} value")


def _dump_morphism(m: Morphism):
    base = {
        "instance": m.instance_id,
        "source": list(m.source.payload),
        "target": list(m.target.payload),
    }
    if isinstance(m.payload, RatMatrix):
        base["kind"] = "matrix-mor"
        base["rows"] = m.payload.rows
        base["cols"] = m.payload.cols
        base["entries"] = {f"{i},{j}": rat_str(v)
                           for (i, j), v in sorted(m.payload.entries.items())}
        return base
    from .bordism import Bord

    if not isinstance(m.payload, Bord):
        raise TypeError(f"cannot serialize morphism payload {type(m.payload)!r}")
    pairs = m.payload.isometry
    if pairs is not None:
        base["kind"] = "iso-mor"
        base["mapping"] = [list(p) for p in pairs]
    else:
        base["kind"] = "bord-mor"
        base["arcs"] = [[list(a), list(b), rat_str(l)] for (a, b, l) in m.payload.arcs]
        base["circles"] = [rat_str(c) for c in m.payload.circles]
    return base


def load_value(data):
    kind = data["kind"]
    if kind == "matrix-mor":
        inst = get_instance(data["instance"])
        src = inst.obj(data["source"])
        tgt = inst.obj(data["target"])
        entries = {}
        for key, v in data["entries"].items():
            i, j = key.split(",")
            entries[(int(i), int(j))] = parse_rat(v)
        return inst.mor(src, tgt, RatMatrix(data["rows"], data["cols"], entries))
    if kind == "iso-mor":
        inst = get_instance(data["instance"])
        src = inst.points(data["source"])
        tgt = inst.points(data["target"])
        return inst.iso_mor(src, tgt, dict(tuple(p) for p in data["mapping"]))
    if kind == "bord-mor":
        inst = get_instance(data["instance"])
        src = inst.points(data["source"])
        tgt = inst.points(data["target"])
        arcs = [((a[0], a[1]), (b[0], b[1]), parse_rat(l)) for (a, b, l) in data["arcs"]]
        return inst.bord_mor(src, tgt, arcs, [parse_rat(c) for c in data["circles"]])
    if kind == "str":
        return data["value"]
    if kind == "rat":
        return parse_rat(data["value"])
    raise TypeError(f"cannot deserialize kind {kind!r}")


def dump_inputs(inputs: dict) -> dict:
    return {name: dump_value(v) for name, v in inputs.items()}


def load_inputs(data: dict) -> dict:
    return {name: load_value(v) for name, v in data.items()}
