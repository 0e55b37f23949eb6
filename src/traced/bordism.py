"""The 1-dimensional Riemannian bordism category.

Objects are finite ordered sets of labelled points.  A morphism X -> Y is
a bordism: a perfect matching of the boundary (in-points of X and out-points
of Y) by arcs carrying rational lengths, together with a multiset of free
circles.  In dimension one the isometry class of a component is exactly its
length, so this data is the whole morphism.

A thin strand is an arc of length zero.  An isometry (a bijection of labels)
is a morphism whose strands are all thin, each from an in-point to an
out-point, with no circles; `Bord.isometry` reads its bijection back.  So
every morphism has the one payload `Bord`, and one walk glues them all.
`bord_mor` admits positive lengths only: thin strands come from `iso_mor`,
`identity` and `switching`, and stay where such a morphism is tensored with
a bordism.  `cut_thickener` and `glue_trace` refuse a morphism that carries
a thin strand.  The identity of the empty set has no strands at all: it is
the empty bordism, not an isometry.

Composition glues along the shared boundary, adding lengths along each
chain; chains that close up leave the boundary and become circles.  The
monoidal structure is disjoint union (labels must stay distinct), and the
switching isomorphism is the relabelling isometry X (+) Y -> Y (+) X.

The same walk glues a whiskered composite (id (x) g) . (f (x) id) in one
step, with no identity, tensor or relabelling built.  That is how the
gluing kernels evaluate psi, tr_hat, pre_compose, post_compose and
hat_comp_witness; the whiskered composites in thickened.py stay the
reference, and the kernel.oracle.rbord1 suite checks each kernel against
its composite on every generated input.

Every length is a `rat`.  It becomes one once, where it enters: `bord_mor`,
`circles_mor` and the cut fraction of `cut_thickener` convert whatever they
are given, and nothing else converts a length again.  `compose`, `tensor`,
`glue_trace` and the gluing kernels reuse the `rat` objects of their
operands, making a new one only for a sum.  A thin strand carries the one
shared zero `_ZERO`, which chain sums skip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CategoryInstance, Morphism, ObjectRef
from .errors import DomainMismatch, NotBordism, NotEndo
from ._rat import rat

IN = "in"
OUT = "out"
_ZERO = rat(0)
_G_TAG = {IN: "gin", OUT: "gout"}


def _chains(arcs, glue, ends=()):
    """Walk every chain of `arcs` (end, end, length) glued end to end.
    `glue` maps each inner arc end to the end glued to it, and holds no outer
    end.  The chains starting at the outer `ends` are open; the chains left
    over close up.  Returns the open chains as (start, end, length) and the
    lengths of the closed ones."""
    arc_at, visited = {}, set()
    for (a, b, l) in arcs:
        arc_at[a] = (b, l)
        arc_at[b] = (a, l)

    def walk(start):
        total = _ZERO
        cur = start
        while True:
            visited.add(cur)
            nxt, l = arc_at[cur]
            visited.add(nxt)
            if l is not _ZERO:
                total = l if total is _ZERO else total + l
            cur = glue.get(nxt)
            if cur is None or cur == start:
                return nxt, total

    opened = [(start, *walk(start)) for start in ends if start not in visited]
    closed = [walk(node)[1] for node in arc_at if node not in visited]
    return opened, closed


def _refuse_thin_strand(sigma, action: str):
    """Refuse a morphism that carries an isometry strand, the zero-length arc
    that an isometry is made of and that tensoring with one leaves behind:
    it has no collar to cut, and gluing it up could close a circle of length
    zero.  The first such strand is named."""
    for (a, b, l) in sigma.payload.arcs:
        if not l:
            raise NotBordism(f"the strand {a[1]} -> {b[1]} is an isometry strand of length 0;"
                             f" only bordisms can be {action}")


@dataclass(frozen=True)
class Bord:
    """arcs: perfect matching on (in-boundary + out-boundary), each with a
    length; circles: multiset of circle lengths.  Both canonically sorted."""

    arcs: tuple
    circles: tuple

    @staticmethod
    def make(arcs, circles=()):
        canon = []
        for (a, b, l) in arcs:
            if type(l) is not rat:
                l = rat(l)
            canon.append((a, b, l) if a <= b else (b, a, l))
        canon.sort()
        return Bord(tuple(canon), tuple(sorted(c if type(c) is rat else rat(c) for c in circles)))

    @property
    def isometry(self):
        """The (source, target) label pairs, sorted by source, when every
        strand is thin: at least one arc, no circles, and every arc of length
        0 from an in-point to an out-point.  None otherwise."""
        if self.circles or not self.arcs:
            return None
        if any(l or a[0] != IN or b[0] != OUT for (a, b, l) in self.arcs):
            return None
        return tuple((a[1], b[1]) for (a, b, _l) in self.arcs)


class RBord1(CategoryInstance):
    instance_id = "rbord1"

    # objects ---------------------------------------------------------------

    def points(self, labels) -> ObjectRef:
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise DomainMismatch(f"duplicate point labels in {labels!r}")
        return ObjectRef(self.instance_id, labels)

    def unit_object(self) -> ObjectRef:
        return self.points(())

    def tensor_obj(self, x: ObjectRef, y: ObjectRef) -> ObjectRef:
        self._own_obj(x)
        self._own_obj(y)
        merged = x.payload + y.payload
        if len(set(merged)) != len(merged):
            raise DomainMismatch(f"label collision in disjoint union: {x.payload} + {y.payload}")
        return ObjectRef(self.instance_id, merged)

    # morphism builders -------------------------------------------------------

    def _thin(self, src: ObjectRef, tgt: ObjectRef, pairs) -> Morphism:
        """One thin strand from in-point a to out-point b per pair (a, b)."""
        arcs = [((IN, a), (OUT, b), _ZERO) for (a, b) in pairs]
        return Morphism(self.instance_id, src, tgt, Bord.make(arcs))

    def iso_mor(self, src: ObjectRef, tgt: ObjectRef, mapping: dict) -> Morphism:
        self._own_obj(src)
        self._own_obj(tgt)
        mapping = {str(k): str(v) for k, v in mapping.items()}
        if set(mapping) != set(src.payload) or set(mapping.values()) != set(tgt.payload):
            raise DomainMismatch("isometry must be a bijection of the point labels")
        if len(set(mapping.values())) != len(mapping):
            raise DomainMismatch("isometry mapping is not injective")
        return self._thin(src, tgt, mapping.items())

    def bord_mor(self, src: ObjectRef, tgt: ObjectRef, arcs, circles=()) -> Morphism:
        """Bordism from explicit arcs ((side,label),(side,label),length)."""
        self._own_obj(src)
        self._own_obj(tgt)
        boundary = {(IN, x) for x in src.payload} | {(OUT, y) for y in tgt.payload}
        seen = set()
        canon = []
        for (a, b, l) in arcs:
            a, b = (a[0], str(a[1])), (b[0], str(b[1]))
            if type(l) is not rat:
                l = rat(l)
            if l <= 0:
                raise DomainMismatch(f"arc length must be positive, got {l}")
            for e in (a, b):
                if e not in boundary:
                    raise DomainMismatch(f"arc endpoint {e!r} is not on the boundary")
                if e in seen:
                    raise DomainMismatch(f"endpoint {e!r} used twice")
                seen.add(e)
            canon.append((a, b, l))
        if seen != boundary:
            missing = boundary - seen
            raise DomainMismatch(f"boundary points not matched: {sorted(missing)}")
        circles = [c if type(c) is rat else rat(c) for c in circles]
        if any(c <= 0 for c in circles):
            raise DomainMismatch("circle length must be positive")
        return Morphism(self.instance_id, src, tgt, Bord.make(canon, circles))

    def interval(self, x: str, y: str, length) -> Morphism:
        """The interval of the given length from point x to point y."""
        return self.bord_mor(self.points([x]), self.points([y]),
                             [((IN, x), (OUT, y), length)])

    def circles_mor(self, lengths) -> Morphism:
        unit = self.unit_object()
        return self.bord_mor(unit, unit, (), lengths)

    # category structure --------------------------------------------------------

    def identity(self, x: ObjectRef) -> Morphism:
        self._own_obj(x)
        return self._thin(x, x, ((p, p) for p in x.payload))

    def switching(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        src = self.tensor_obj(x, y)
        tgt = self.tensor_obj(y, x)
        return self._thin(src, tgt, ((p, p) for p in src.payload))

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """Glue f then g along their shared boundary, adding arc lengths;
        chains that close up become circles."""
        self.check_composable(g, f)
        return self._glue(f.source, g.target, f, g, f.target.payload)

    def _glue(self, src: ObjectRef, tgt: ObjectRef, lower: Morphism, upper: Morphism,
              seam) -> Morphism:
        """(id (x) upper) . (lower (x) id): src -> tgt in one chain walk.  The
        out-ends of `lower` at the labels of `seam` are glued to the in-ends
        of `upper` at the same labels; every other end keeps its side and
        label.  compose glues along all of lower's target."""
        # upper's arc ends are retagged "gin"/"gout" so that they cannot
        # collide with lower's, even where src and tgt share labels
        low, up = lower.payload, upper.payload
        up_arcs = [((_G_TAG[a[0]], a[1]), (_G_TAG[b[0]], b[1]), l) for (a, b, l) in up.arcs]
        glue = {}
        for m in seam:
            glue[(OUT, m)] = ("gin", m)
            glue[("gin", m)] = (OUT, m)
        outer = {(IN, x): (IN, x) for x in lower.source.payload}
        outer.update({(OUT, y): (OUT, y) for y in lower.target.payload if (OUT, y) not in glue})
        outer.update({("gin", x): (IN, x) for x in upper.source.payload if ("gin", x) not in glue})
        outer.update({("gout", y): (OUT, y) for y in upper.target.payload})
        opened, closed = _chains((*low.arcs, *up_arcs), glue, outer)
        arcs = [(outer[start], outer[end], total) for (start, end, total) in opened]
        circles = [*low.circles, *up.circles, *closed]
        return Morphism(self.instance_id, src, tgt, Bord.make(arcs, circles))

    def tensor(self, f: Morphism, g: Morphism) -> Morphism:
        self._own_mor(f)
        self._own_mor(g)
        src = self.tensor_obj(f.source, g.source)
        tgt = self.tensor_obj(f.target, g.target)
        payload = Bord.make(f.payload.arcs + g.payload.arcs, f.payload.circles + g.payload.circles)
        return Morphism(self.instance_id, src, tgt, payload)

    def disjoint_copy(self, x: ObjectRef, avoid=()):
        taken = set(x.payload)
        for other in avoid:
            taken |= set(other.payload)
        x2 = self._fresh_labels(x, taken)
        to_orig = self.iso_mor(x2, x, dict(zip(x2.payload, x.payload)))
        from_orig = self.iso_mor(x, x2, dict(zip(x.payload, x2.payload)))
        return x2, to_orig, from_orig

    # gluing kernels ------------------------------------------------------------
    #
    # Each <op>_kernel takes the arguments of thickened.<op>_composite and
    # returns the same component, from one _glue walk instead of the
    # whiskered composite.  Where the composite can meet a label collision,
    # the kernel first makes the composite's failing tensor_obj call, so it
    # raises the same DomainMismatch.

    def psi_kernel(self, tr) -> Morphism:
        """(id_Y (x) b) . (t (x) id_X): t glued to b along Z."""
        return self._glue(tr.dom, tr.cod, tr.t, tr.b, tr.z.payload)

    def tr_hat_kernel(self, tr) -> Morphism:
        """b . s_{X,Z} . t: s only relabels, so t is glued to b along X and Z."""
        return self._glue(tr.t.source, tr.b.target, tr.t, tr.b, tr.t.target.payload)

    def pre_compose_kernel(self, tr, f: Morphism) -> Morphism:
        """b . (id_Z (x) f): f glued to b along X."""
        src = self.tensor_obj(tr.z, f.source)
        return self._glue(src, tr.b.target, f, tr.b, f.target.payload)

    def post_compose_kernel(self, f: Morphism, tr) -> Morphism:
        """(f (x) id_Z) . t: t glued to f along Y."""
        tgt = self.tensor_obj(f.target, tr.z)
        return self._glue(tr.t.source, tgt, tr.t, f, f.source.payload)

    def hat_comp_witness_kernel(self, tr1, tr2) -> Morphism:
        """g = (b1 (x) id_{Z2}) . (id_{Z1} (x) t2): t2 glued to b1 along X."""
        self.tensor_obj(tr1.b.source, tr2.z)
        return self._glue(tr1.z, tr2.z, tr2.t, tr1.b, tr2.cod.payload)

    # cutting and gluing ---------------------------------------------------------

    def _fresh_labels(self, base: ObjectRef, avoid) -> ObjectRef:
        taken = set(avoid)
        labels = []
        for y in base.payload:
            z = y + "'"
            while z in taken:
                z += "'"
            taken.add(z)
            labels.append(z)
        return self.points(labels)

    def _collar_widths(self, sigma: Morphism, fraction):
        """Collar width at each out-point: a fraction of the incident arc,
        halved when both ends of the arc sit on the out-boundary."""
        widths = {}
        for (a, b, l) in sigma.payload.arcs:
            if a[0] == OUT and b[0] == OUT:
                widths[a[1]] = fraction * l / 2
                widths[b[1]] = fraction * l / 2
            elif b[0] == OUT:
                widths[b[1]] = fraction * l
        return widths

    def cut_thickener(self, sigma: Morphism, cut_fraction):
        """Cut a collar of the given fractional width off the out-boundary of
        a bordism X -> Y, producing the thick triple (Z, t, b) with Z a fresh
        copy of Y, t the collar and b the remainder.  Re-gluing recovers
        sigma; for an endomorphism the trace of the triple is the glued-up
        closed bordism."""
        from .thickened import ThickTriple

        self._own_mor(sigma)
        _refuse_thin_strand(sigma, "cut")
        r = cut_fraction if type(cut_fraction) is rat else rat(cut_fraction)
        if not (0 < r < 1):
            raise DomainMismatch("cut fraction must lie strictly between 0 and 1")
        x_obj, y_obj = sigma.source, sigma.target
        z_obj = self._fresh_labels(y_obj, avoid=set(x_obj.payload) | set(y_obj.payload))
        z_of = dict(zip(y_obj.payload, z_obj.payload))
        widths = self._collar_widths(sigma, r)

        t_arcs = [((OUT, y), (OUT, z_of[y]), widths[y]) for y in y_obj.payload]
        b_arcs = []
        for (a, b, l) in sigma.payload.arcs:
            if a[0] == OUT and b[0] == OUT:
                b_arcs.append(((IN, z_of[a[1]]), (IN, z_of[b[1]]), l - widths[a[1]] - widths[b[1]]))
            elif b[0] == OUT:
                b_arcs.append(((IN, a[1]), (IN, z_of[b[1]]), l - widths[b[1]]))
            else:
                b_arcs.append((a, b, l))
        t = self.bord_mor(self.unit_object(), self.tensor_obj(y_obj, z_obj), t_arcs)
        b = self.bord_mor(self.tensor_obj(z_obj, x_obj), self.unit_object(),
                          b_arcs, sigma.payload.circles)
        return ThickTriple(dom=x_obj, cod=y_obj, z=z_obj, t=t, b=b)

    def cut_witness(self, sigma: Morphism, r1, r2):
        """The connecting collar between two cut positions r1 < r2 of the
        same bordism, as a slide witness between the two triples."""
        from .thickened import SlideWitness

        r1, r2 = rat(r1), rat(r2)
        if not (0 < r1 < r2 < 1):
            raise DomainMismatch("need 0 < r1 < r2 < 1")
        left = self.cut_thickener(sigma, r1)
        right = self.cut_thickener(sigma, r2)
        w1 = self._collar_widths(sigma, r1)
        w2 = self._collar_widths(sigma, r2)
        z_of = dict(zip(sigma.target.payload, left.z.payload))
        arcs = [((IN, z_of[y]), (OUT, z_of[y]), w2[y] - w1[y]) for y in sigma.target.payload]
        g = self.bord_mor(left.z, right.z, arcs)
        return SlideWitness(g=g, left=left, right=right)

    def glue_trace(self, sigma: Morphism) -> Morphism:
        """Close an endomorphism bordism by identifying its in- and
        out-copies of X; the result is a disjoint union of circles."""
        self._own_mor(sigma)
        _refuse_thin_strand(sigma, "glued up")
        if sigma.source != sigma.target:
            raise NotEndo("gluing requires an endomorphism bordism")
        glue = {}
        for x in sigma.source.payload:
            glue[(IN, x)] = (OUT, x)
            glue[(OUT, x)] = (IN, x)
        closed = _chains(sigma.payload.arcs, glue)[1]
        return self.circles_mor([*sigma.payload.circles, *closed])
