import pytest

from traced import (
    ThickTriple,
    get_instance,
    hat_comp_witness,
    post_compose,
    pre_compose,
    psi,
    rat,
    tr_hat,
    trace_pairing,
)
from traced.bordism import IN, OUT, Bord
from traced.core import Morphism
from traced.dsl.evaluate import render_value
from traced.errors import DomainMismatch, NotBordism, NotEndo
from traced.gens import gen_bordism, gen_point_set, gen_triple, trial_stream
from traced.serde import dump_value, load_value

rb = get_instance("rbord1")


def test_interval_gluing_adds_lengths():
    f = rb.interval("w", "x", 3)
    g = rb.interval("x", "y", 2)
    h = rb.compose(g, f)
    assert h.payload == Bord.make([(((IN, "w")), (OUT, "y"), 5)])


def test_loop_closing_composition():
    ab = rb.points(["a", "b"])
    cap = rb.bord_mor(rb.unit_object(), ab, [((OUT, "a"), (OUT, "b"), 1)])
    cup = rb.bord_mor(ab, rb.unit_object(), [((IN, "a"), (IN, "b"), 2)])
    assert rb.compose(cup, cap).payload == Bord.make([], [3])


def test_iso_composition_relabels():
    g = rb.interval("x", "y", 2)
    ren = rb.iso_mor(rb.points(["y"]), rb.points(["u"]), {"y": "u"})
    out = rb.compose(ren, g)
    assert out.payload == Bord.make([((IN, "x"), (OUT, "u"), 2)])
    pre = rb.iso_mor(rb.points(["w"]), rb.points(["x"]), {"w": "x"})
    assert rb.compose(g, pre).payload == Bord.make([((IN, "w"), (OUT, "y"), 2)])


def test_iso_iso_composition():
    a = rb.iso_mor(rb.points(["x"]), rb.points(["y"]), {"x": "y"})
    b = rb.iso_mor(rb.points(["y"]), rb.points(["u"]), {"y": "u"})
    out = rb.compose(b, a)
    assert out.payload.isometry == (("x", "u"),)


def test_empty_identity_is_empty_bordism():
    ident = rb.identity(rb.unit_object())
    assert ident.payload.isometry is None
    assert ident.payload == Bord.make([])
    again = rb.compose(ident, ident)
    assert again == ident


def test_tensor_disjoint_union():
    a = rb.interval("x", "y", 1)
    b = rb.interval("u", "v", 2)
    both = rb.tensor(a, b)
    assert both.payload == Bord.make(
        [((IN, "x"), (OUT, "y"), 1), ((IN, "u"), (OUT, "v"), 2)]
    )


def test_tensor_label_collision_rejected():
    a = rb.interval("x", "y", 1)
    with pytest.raises(DomainMismatch):
        rb.tensor(a, a)


def test_tensor_with_identity_iso_stays_normalized():
    a = rb.interval("x", "y", 1)
    u = rb.points(["u"])
    hybrid = rb.tensor(a, rb.identity(u))
    assert hybrid.payload.isometry is None
    lengths = sorted(l for (_x, _y, l) in hybrid.payload.arcs)
    assert lengths == [0, 1]
    # composing hybrids adds lengths along each strand; the untouched
    # identity strand stays thin while the thick one glues up
    b = rb.interval("y", "w", 2)
    out = rb.compose(rb.tensor(b, rb.identity(u)), hybrid)
    by_arc = {(p, q): l for (p, q, l) in out.payload.arcs}
    assert by_arc[((IN, "u"), (OUT, "u"))] == 0
    assert by_arc[((IN, "x"), (OUT, "w"))] == 3
    # all-thin tensors are isometries
    two = rb.tensor(rb.identity(rb.points(["p"])), rb.identity(u))
    assert two.payload.isometry == (("p", "p"), ("u", "u"))


def test_switching_is_relabelling_identity():
    x, y = rb.points(["x"]), rb.points(["y"])
    s = rb.switching(x, y)
    assert s.payload.isometry == (("x", "x"), ("y", "y"))
    assert s.source == rb.tensor_obj(x, y)
    assert s.target == rb.tensor_obj(y, x)


def test_bord_mor_validation():
    x = rb.points(["x"])
    with pytest.raises(DomainMismatch):
        rb.bord_mor(x, x, [((IN, "x"), (OUT, "x"), 0)])  # zero length
    with pytest.raises(DomainMismatch):
        rb.bord_mor(x, x, [])  # unmatched boundary
    with pytest.raises(DomainMismatch):
        rb.bord_mor(x, x, [((IN, "x"), (OUT, "q"), 1)])  # off-boundary point


def test_glue_trace_examples():
    sigma = rb.interval("x", "x", 3)
    assert rb.glue_trace(sigma).payload == Bord.make([], [3])

    uv = rb.points(["u", "v"])
    swap = rb.bord_mor(uv, uv, [((IN, "u"), (OUT, "v"), 1), ((IN, "v"), (OUT, "u"), 2)])
    assert rb.glue_trace(swap).payload == Bord.make([], [3])

    par = rb.bord_mor(uv, uv, [((IN, "u"), (OUT, "u"), rat(1, 2)), ((IN, "v"), (OUT, "v"), 2)])
    assert rb.glue_trace(par).payload == Bord.make([], [rat(1, 2), 2])

    with pytest.raises(NotEndo):
        rb.glue_trace(rb.interval("x", "y", 1))
    with pytest.raises(NotBordism):
        rb.glue_trace(rb.identity(rb.points(["x"])))


@pytest.mark.parametrize("lengths", [[-1], [0], [2, 0]])
def test_circles_mor_rejects_nonpositive_lengths(lengths):
    with pytest.raises(DomainMismatch):
        rb.circles_mor(lengths)


def test_cut_thickener_structure():
    sigma = rb.interval("x", "x", 5)
    tri = rb.cut_thickener(sigma, rat(1, 5))
    assert tri.z.payload == ("x'",)
    assert tri.t.payload == Bord.make([((OUT, "x"), (OUT, "x'"), 1)])
    assert tri.b.payload == Bord.make([((IN, "x"), (IN, "x'"), 4)])
    assert rb.mor_equal(psi(tri), sigma)
    assert tr_hat(tri).payload == Bord.make([], [5])


def test_cut_rejects_isometries_and_bad_fractions():
    with pytest.raises(NotBordism):
        rb.cut_thickener(rb.identity(rb.points(["x"])), rat(1, 2))
    sigma = rb.interval("x", "x", 5)
    with pytest.raises(DomainMismatch):
        rb.cut_thickener(sigma, rat(3, 2))


def test_thin_strands_are_refused_by_name():
    """A bordism tensored with an identity isometry carries a zero-length
    strand, and an isometry is all such strands.  Cutting or gluing one up
    is refused up front with NotBordism naming its first strand, also where
    the strand lies on a loop of positive length, rather than failing later
    on a zero length nobody wrote."""
    hybrid = rb.tensor(rb.interval("x", "x", 1), rb.identity(rb.points(["z"])))
    xz = hybrid.source
    swapped = rb.compose(rb.iso_mor(xz, xz, {"x": "z", "z": "x"}), hybrid)
    isometry = rb.identity(rb.points(["a", "b"]))
    for sigma, strand in ((hybrid, "z -> z"), (swapped, "z -> x"), (isometry, "a -> a")):
        with pytest.raises(NotBordism, match=f"strand {strand} .* can be cut$"):
            rb.cut_thickener(sigma, rat(1, 3))
        with pytest.raises(NotBordism, match=f"strand {strand} .* can be glued up$"):
            rb.glue_trace(sigma)


def test_cut_carries_free_circles():
    x = rb.points(["x"])
    sigma = rb.bord_mor(x, x, [((IN, "x"), (OUT, "x"), 1)], circles=[7])
    tri = rb.cut_thickener(sigma, rat(1, 2))
    assert tri.b.payload.circles == (rat(7),)
    assert rb.mor_equal(psi(tri), sigma)
    assert tr_hat(tri).payload == Bord.make([], [1, 7])


def test_two_cuts_agree_with_witness():
    rng = trial_stream(17, "cuts", 0)
    for k in range(100):
        x = gen_point_set(rb, rng, rng.randint(1, 4), prefix="x")
        sigma = gen_bordism(rb, x, x, rng)
        r1, r2 = rat(1, 4), rat(2, 3)
        c1 = rb.cut_thickener(sigma, r1)
        c2 = rb.cut_thickener(sigma, r2)
        assert rb.mor_equal(tr_hat(c1), tr_hat(c2))
        assert rb.mor_equal(psi(c1), sigma)
        w = rb.cut_witness(sigma, r1, r2)
        assert w.holds()


def test_glue_equals_trace_of_cut():
    rng = trial_stream(18, "glue", 0)
    for k in range(200):
        x = gen_point_set(rb, rng, rng.randint(1, 4), prefix="x")
        sigma = gen_bordism(rb, x, x, rng)
        r = rat(rng.randint(1, 9), 10)
        assert rb.mor_equal(rb.glue_trace(sigma), tr_hat(rb.cut_thickener(sigma, r)))


def test_pairing_is_glued_circle():
    f = rb.interval("x", "y", 1)
    g = rb.interval("y", "x", 2)
    f_hat = rb.cut_thickener(f, rat(1, 2))
    assert trace_pairing(f_hat, g).payload == Bord.make([], [3])


def test_psi_of_triples_is_thick():
    rng = trial_stream(19, "thick", 0)
    for k in range(200):
        par = rng.randint(0, 1)
        x = gen_point_set(rb, rng, par + 2 * rng.randint(0, 1), prefix="x")
        y = gen_point_set(rb, rng, par + 2 * rng.randint(0, 1), prefix="y")
        tri = gen_triple(rb, x, y, rng)
        value = psi(tri)
        assert value.payload.isometry is None
        assert all(l > 0 for (_a, _b, l) in value.payload.arcs)


def test_mor_equal_canonical_forms():
    """Endpoint order inside an arc and the order circles are listed in do
    not affect equality; the canonical form sorts both."""
    x, u = rb.points(["x"]), rb.points(["u"])
    a = rb.bord_mor(x, u, [((IN, "x"), (OUT, "u"), 1)], circles=[1, 2])
    b = rb.bord_mor(x, u, [((OUT, "u"), (IN, "x"), 1)], circles=[2, 1])
    assert rb.mor_equal(a, b)
    c = rb.bord_mor(x, u, [((IN, "x"), (OUT, "u"), 1)], circles=[2, 2])
    assert not rb.mor_equal(a, c)


def lengths(f):
    """Every arc and circle length of a bordism."""
    return [l for (_a, _b, l) in f.payload.arcs] + list(f.payload.circles)


def test_every_public_path_stores_rat_lengths():
    """Lengths given as ints become rats where they enter, and every
    bordism built from those keeps rats, never ints."""
    x, y, uv = rb.points(["x"]), rb.points(["y"]), rb.points(["u", "v"])
    f = rb.bord_mor(x, y, [((IN, "x"), (OUT, "y"), 3)], circles=[2])
    g = rb.interval("y", "x", 1)
    cup = rb.bord_mor(uv, rb.unit_object(), [((IN, "u"), (IN, "v"), 4)])
    to_x = rb.iso_mor(y, x, {"y": "x"})
    from_y = rb.iso_mor(rb.points(["w"]), x, {"w": "x"})
    sigma = rb.compose(g, f)
    tri = rb.cut_thickener(sigma, rat(1, 3))
    n, m = rb.points(["n"]), rb.points(["m"])
    other = ThickTriple(dom=n, cod=x, z=m,
                        t=rb.bord_mor(rb.unit_object(), rb.tensor_obj(x, m),
                                      [((OUT, "x"), (OUT, "m"), 2)]),
                        b=rb.bord_mor(rb.tensor_obj(m, n), rb.unit_object(),
                                      [((IN, "m"), (IN, "n"), 5)]))
    made = Bord.make([((IN, "x"), (OUT, "y"), 5)], [3])
    assert type(made.arcs[0][2]) is rat and type(made.circles[0]) is rat
    built = [
        f, g, cup, sigma, tri.t, tri.b,
        rb.circles_mor([1, 2]),
        rb.compose(to_x, f),
        rb.compose(f, from_y),
        rb.tensor(f, rb.identity(uv)),
        rb.tensor(rb.identity(rb.points(["p"])), cup),
        rb.glue_trace(sigma),
        psi(tri), tr_hat(tri),
        pre_compose(tri, from_y).b,
        post_compose(f, tri).t,
        hat_comp_witness(tri, other).g,
    ]
    for mor in built:
        assert mor.payload.isometry is None
        assert lengths(mor) and all(type(l) is rat for l in lengths(mor)), mor.payload


def test_rebuilt_bordisms_reuse_their_lengths():
    """compose with an isometry, tensor with an identity, glue_trace of a
    single strand and the gluing kernels where each chain has one piece of
    positive length add no length, so they keep the very rat objects."""
    x, y, u = rb.points(["x"]), rb.points(["y"]), rb.points(["u"])
    f = rb.interval("x", "y", 3)
    (length,) = lengths(f)
    assert lengths(rb.compose(rb.iso_mor(y, u, {"y": "u"}), f))[0] is length
    assert lengths(rb.compose(f, rb.iso_mor(u, x, {"u": "x"})))[0] is length
    assert any(l is length for l in lengths(rb.tensor(f, rb.identity(u))))
    loop = rb.interval("x", "x", 3)
    assert lengths(rb.glue_trace(loop))[0] is lengths(loop)[0]
    tri = rb.cut_thickener(f, rat(1, 3))
    assert lengths(pre_compose(tri, rb.iso_mor(u, x, {"u": "x"})).b)[0] is lengths(tri.b)[0]
    assert lengths(post_compose(rb.iso_mor(y, u, {"y": "u"}), tri).t)[0] is lengths(tri.t)[0]

    def objects(*mors):
        return sorted(id(l) for mor in mors for l in lengths(mor))

    unit = rb.unit_object()
    free = ThickTriple(dom=unit, cod=unit, z=unit, t=rb.circles_mor([4]), b=rb.circles_mor([5]))
    for glued in (psi(free), tr_hat(free), hat_comp_witness(free, free).g):
        assert objects(glued) == objects(free.t, free.b)
    cap = rb.bord_mor(unit, rb.points(["p", "q"]), [((OUT, "p"), (OUT, "q"), 2)])
    capped = ThickTriple(dom=unit, cod=cap.target, z=unit, t=cap, b=free.b)
    assert objects(psi(capped)) == objects(cap, free.b)


def test_zero_length_composites_collapse_to_isometries():
    """Isometry strands carry length zero; a composite with no positive
    length left is an isometry again, whichever zero object it carries."""
    p, u = rb.points(["p"]), rb.points(["u"])
    swap = rb.switching(p, u)
    thin = rb.tensor(rb.identity(p), rb.identity(u))
    assert thin.payload.isometry == (("p", "p"), ("u", "u"))
    assert rb.compose(swap, thin).payload.isometry == (("p", "p"), ("u", "u"))
    # hand-built bordisms whose only arcs have length zero (int or rat)
    x, y, z = rb.points(["x"]), rb.points(["y"]), rb.points(["z"])
    f = Morphism("rbord1", x, y, Bord.make([((IN, "x"), (OUT, "y"), 0)]))
    g = Morphism("rbord1", y, z, Bord.make([((IN, "y"), (OUT, "z"), rat(0))]))
    out = rb.compose(g, f)
    assert out.payload.isometry == (("x", "z"),)


def _iso_dump(source, target, mapping):
    return {"instance": "rbord1", "source": source, "target": target,
            "kind": "iso-mor", "mapping": mapping}


def _pinned_morphisms():
    p, u = rb.points(["p"]), rb.points(["u"])
    thin = rb.tensor(rb.identity(p), rb.identity(u))
    pu = [["p", "p"], ["u", "u"]]
    yield (rb.iso_mor(rb.points(["x"]), rb.points(["y"]), {"x": "y"}),
           _iso_dump(["x"], ["y"], [["x", "y"]]), "iso{x->y}")
    yield (rb.identity(rb.points(["a", "b"])),
           _iso_dump(["a", "b"], ["a", "b"], [["a", "a"], ["b", "b"]]), "iso{a->a, b->b}")
    yield rb.switching(p, u), _iso_dump(["p", "u"], ["u", "p"], pu), "iso{p->p, u->u}"
    yield thin, _iso_dump(["p", "u"], ["p", "u"], pu), "iso{p->p, u->u}"
    yield (rb.compose(rb.switching(p, u), thin),
           _iso_dump(["p", "u"], ["u", "p"], pu), "iso{p->p, u->u}")
    yield (rb.identity(rb.unit_object()),
           {"instance": "rbord1", "source": [], "target": [], "kind": "bord-mor",
            "arcs": [], "circles": []}, "bord{}")


def test_isometries_serialize_and_print_pinned():
    """Every all-thin morphism is written as `iso-mor` with its label
    mapping and printed as iso{...}, whether built directly, by tensor or
    by compose; the empty identity is the empty bordism.  Each reloads to
    an equal morphism."""
    for m, dumped, text in _pinned_morphisms():
        assert dump_value(m) == dumped
        assert render_value(rb, m) == text
        assert load_value(dump_value(m)) == m


def test_hybrid_serializes_and_prints_its_thin_strand():
    """A bordism tensored with an identity keeps its strand of length 0 in
    the written arcs; bord_mor refuses length 0, so it does not reload."""
    hybrid = rb.tensor(rb.interval("x", "y", 1), rb.identity(rb.points(["u"])))
    assert dump_value(hybrid) == {
        "instance": "rbord1", "source": ["x", "u"], "target": ["y", "u"], "kind": "bord-mor",
        "arcs": [[["in", "u"], ["out", "u"], "0"], [["in", "x"], ["out", "y"], "1"]],
        "circles": []}
    assert render_value(rb, hybrid) == "bord{u->u : 0, x->y : 1}"
    with pytest.raises(DomainMismatch):
        load_value(dump_value(hybrid))
