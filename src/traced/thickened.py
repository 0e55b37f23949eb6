"""Thick triples and their calculus.

A triple (Z, t, b) with t: I -> Y (x) Z and b: Z (x) X -> I is a chosen
representative of a thickened morphism from X to Y.  The two computable
functionals on representatives are

    psi(Z, t, b)    = (id_Y (x) b) . (t (x) id_X) : X -> Y
    tr_hat(Z, t, b) = b . s_{X,Z} . t            : I -> I   (X = Y only)

Both are invariant under slides along g: Z -> Z', i.e. under replacing
(Z, t, b' . (g (x) id_X)) by (Z', (id_Y (x) g) . t, b').  Equivalence
classes themselves are never materialized: the engine only ever checks
equalities of psi and tr_hat, plus explicitly constructed slide witnesses.

The remaining operations mirror the calculus: pre/post composition with
ordinary morphisms, the canonical witness that hat(f1).f2 and f1.hat(f2)
are one slide apart, the trace pairing, sums of triples over a biproduct,
and the braided tensor product of triples.

Six operations have a contraction kernel on the matrix instances, and
five have a gluing kernel on rbord1.  Each states its domain check once,
makes one call getattr(inst, "<op>_kernel", <op>_composite)(...) and
builds its result from what that returns.  The kernel, a method of the
instance, and the whiskered composite below, the reference semantics and
the path of an instance without that kernel, take the same arguments and
return the same component:

    psi (tr): the morphism           hat_comp_witness (tr1, tr2): the slide g
    pre_compose (tr, f): the new b   canonical_thickener (f, xd): t, xd = X*
    post_compose (f, tr): the new t  add_triples (tr1, tr2): the sum triple
    tr_hat (tr): the scalar

The matrix instances have every kernel but tr_hat's; rbord1 has psi,
tr_hat, pre_compose, post_compose and hat_comp_witness, and no
add_triples or canonical_thickener kernel, as it is neither additive nor
has duals.  pad_thickener is add_triples with a summand whose t is zero,
so it takes the add_triples path.  tensor_triples has no kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Morphism, ObjectRef, instance_of
from .errors import DomainMismatch, NotEndo


@dataclass(frozen=True)
class ThickTriple:
    dom: ObjectRef
    cod: ObjectRef
    z: ObjectRef
    t: Morphism
    b: Morphism

    def __post_init__(self):
        inst = instance_of(self.dom)
        unit = inst.unit_object()
        if self.t.source != unit or self.t.target != inst.tensor_obj(self.cod, self.z):
            raise DomainMismatch("t must map I into cod (x) Z")
        if self.b.source != inst.tensor_obj(self.z, self.dom) or self.b.target != unit:
            raise DomainMismatch("b must map Z (x) dom into I")

    @property
    def instance_id(self) -> str:
        return self.dom.instance_id


@dataclass(frozen=True)
class SlideWitness:
    """g: Z -> Z' together with the two triples it connects.

    Validity means exactly: right.t = (id (x) g) . left.t and
    left.b = right.b . (g (x) id)."""

    g: Morphism
    left: ThickTriple
    right: ThickTriple

    def holds(self) -> bool:
        inst = instance_of(self.g)
        lt, rt = self.left, self.right
        ok_t = inst.mor_equal(
            rt.t, inst.compose(inst.tensor(inst.identity(lt.cod), self.g), lt.t)
        )
        ok_b = inst.mor_equal(
            lt.b, inst.compose(rt.b, inst.tensor(self.g, inst.identity(lt.dom)))
        )
        return ok_t and ok_b


def psi(tr: ThickTriple) -> Morphism:
    """(id_Y (x) b) . (t (x) id_X): the morphism the triple factors."""
    return getattr(instance_of(tr.dom), "psi_kernel", psi_composite)(tr)


def psi_composite(tr: ThickTriple) -> Morphism:
    """psi as the whiskered composite (id_Y (x) b) . (t (x) id_X).

    Label-carried instances cannot form Y (x) Z (x) X when dom and cod share
    points (endomorphism triples), so the incoming copy is relabelled
    freshly and the relabelling isometry conjugated away afterwards.
    """
    inst = instance_of(tr.dom)
    dom2, to_orig, from_orig = inst.disjoint_copy(tr.dom, avoid=(tr.cod, tr.z))
    b = tr.b if dom2 == tr.dom else inst.compose(tr.b, inst.tensor(inst.identity(tr.z), to_orig))
    top = inst.tensor(tr.t, inst.identity(dom2))
    bottom = inst.tensor(inst.identity(tr.cod), b)
    out = inst.compose(bottom, top)
    if dom2 != tr.dom:
        out = inst.compose(out, from_orig)
    return out


def tr_hat(tr: ThickTriple) -> Morphism:
    """b . s_{X,Z} . t for an endomorphism-shaped triple."""
    if tr.dom != tr.cod:
        raise NotEndo("tr_hat needs dom = cod")
    return getattr(instance_of(tr.dom), "tr_hat_kernel", tr_hat_composite)(tr)


def tr_hat_composite(tr: ThickTriple) -> Morphism:
    """tr_hat as the composite b . s_{X,Z} . t; the reference."""
    inst = instance_of(tr.dom)
    s = inst.switching(tr.dom, tr.z)
    return inst.compose(tr.b, inst.compose(s, tr.t))


def pre_compose(tr: ThickTriple, f: Morphism) -> ThickTriple:
    """Triple for hat . f: replace b by b . (id_Z (x) f)."""
    if f.target != tr.dom:
        raise DomainMismatch("pre_compose needs target(f) = dom of the triple")
    b = getattr(instance_of(tr.dom), "pre_compose_kernel", pre_compose_composite)(tr, f)
    return ThickTriple(dom=f.source, cod=tr.cod, z=tr.z, t=tr.t, b=b)


def pre_compose_composite(tr: ThickTriple, f: Morphism) -> Morphism:
    """The b of pre_compose as the whiskered composite b . (id_Z (x) f); the reference."""
    inst = instance_of(tr.dom)
    return inst.compose(tr.b, inst.tensor(inst.identity(tr.z), f))


def post_compose(f: Morphism, tr: ThickTriple) -> ThickTriple:
    """Triple for f . hat: replace t by (f (x) id_Z) . t."""
    if f.source != tr.cod:
        raise DomainMismatch("post_compose needs source(f) = cod of the triple")
    t = getattr(instance_of(tr.dom), "post_compose_kernel", post_compose_composite)(f, tr)
    return ThickTriple(dom=tr.dom, cod=f.target, z=tr.z, t=t, b=tr.b)


def post_compose_composite(f: Morphism, tr: ThickTriple) -> Morphism:
    """The t of post_compose as the whiskered composite (f (x) id_Z) . t; the reference."""
    inst = instance_of(tr.dom)
    return inst.compose(inst.tensor(f, inst.identity(tr.z)), tr.t)


def hat_comp_witness(tr1: ThickTriple, tr2: ThickTriple) -> SlideWitness:
    """The slide connecting hat(f1).f2 with f1.hat(f2).

    For triples of f1: X -> Y and f2: U -> X the witness is
    g = (b1 (x) id_{Z2}) . (id_{Z1} (x) t2): Z1 -> Z2, an equivalence from
    pre_compose(tr1, psi(tr2)) to post_compose(psi(tr1), tr2)."""
    if tr2.cod != tr1.dom:
        raise DomainMismatch("middle objects do not match")
    inst = instance_of(tr1.dom)
    g = getattr(inst, "hat_comp_witness_kernel", hat_comp_witness_composite)(tr1, tr2)
    return SlideWitness(g=g, left=pre_compose(tr1, psi(tr2)),
                        right=post_compose(psi(tr1), tr2))


def hat_comp_witness_composite(tr1: ThickTriple, tr2: ThickTriple) -> Morphism:
    """The g of hat_comp_witness as the whiskered composite
    (b1 (x) id_{Z2}) . (id_{Z1} (x) t2); the reference."""
    inst = instance_of(tr1.dom)
    return inst.compose(
        inst.tensor(tr1.b, inst.identity(tr2.z)),
        inst.tensor(inst.identity(tr1.z), tr2.t),
    )


def trace_pairing(f_hat: ThickTriple, g: Morphism) -> Morphism:
    """tr(f, g) = tr_hat(hat(f) . g) for f: X -> Y (thickened) and g: Y -> X.

    Which side carries the hat does not matter: hat(f).g and f.hat(g) are
    one slide apart (see hat_comp_witness), so the value is independent of
    the representative and of the side."""
    if g.source != f_hat.cod or g.target != f_hat.dom:
        raise DomainMismatch("pairing needs g: cod -> dom opposite the triple")
    return tr_hat(pre_compose(f_hat, g))


def slide_pair(t: Morphism, b_prime: Morphism, g: Morphism,
               dom: ObjectRef, cod: ObjectRef) -> SlideWitness:
    """Build a valid slide witness from free data.

    Given t: I -> cod (x) Z, b': Z' (x) dom -> I and any g: Z -> Z', the
    triples (Z, t, b'.(g (x) id)) and (Z', (id (x) g).t, b') are connected
    by g; this is the generic way to produce equivalent representatives.
    """
    inst = instance_of(g)
    z, z2 = g.source, g.target
    left_b = inst.compose(b_prime, inst.tensor(g, inst.identity(dom)))
    right_t = inst.compose(inst.tensor(inst.identity(cod), g), t)
    left = ThickTriple(dom=dom, cod=cod, z=z, t=t, b=left_b)
    right = ThickTriple(dom=dom, cod=cod, z=z2, t=right_t, b=b_prime)
    return SlideWitness(g=g, left=left, right=right)


# -- additive structure ------------------------------------------------------


def add_triples(tr1: ThickTriple, tr2: ThickTriple) -> ThickTriple:
    """Sum over the biproduct: Z = Z1 (+) Z2 with t the column (t1; t2) and
    b the row (b1, b2); psi and tr_hat are additive in the summands."""
    inst = instance_of(tr1.dom)
    inst.zero_object()  # first, so a non-additive instance says so
    if (tr1.dom, tr1.cod) != (tr2.dom, tr2.cod):
        raise DomainMismatch("summands must share dom and cod")
    return getattr(inst, "add_triples_kernel", add_triples_composite)(tr1, tr2)


def add_triples_composite(tr1: ThickTriple, tr2: ThickTriple) -> ThickTriple:
    """add_triples through the injections and projections of Z1 (+) Z2,
    t = (id (x) inj1) . t1 + (id (x) inj2) . t2 and
    b = b1 . (proj1 (x) id) + b2 . (proj2 (x) id); the reference."""
    inst = instance_of(tr1.dom)
    ds = inst.direct_sum(tr1.z, tr2.z)
    idc = inst.identity(tr1.cod)
    idd = inst.identity(tr1.dom)
    t = inst.add_mor(
        inst.compose(inst.tensor(idc, ds.inj1), tr1.t),
        inst.compose(inst.tensor(idc, ds.inj2), tr2.t),
    )
    b = inst.add_mor(
        inst.compose(tr1.b, inst.tensor(ds.proj1, idd)),
        inst.compose(tr2.b, inst.tensor(ds.proj2, idd)),
    )
    return ThickTriple(dom=tr1.dom, cod=tr1.cod, z=ds.obj, t=t, b=b)


def negate_triple(tr: ThickTriple) -> ThickTriple:
    inst = instance_of(tr.dom)
    return ThickTriple(dom=tr.dom, cod=tr.cod, z=tr.z, t=inst.negate_mor(tr.t), b=tr.b)


def zero_triple(inst, dom: ObjectRef, cod: ObjectRef) -> ThickTriple:
    """The additive unit: the zero object with both structure maps zero."""
    z = inst.zero_object()
    t = inst.zero_mor(inst.unit_object(), inst.tensor_obj(cod, z))
    b = inst.zero_mor(inst.tensor_obj(z, dom), inst.unit_object())
    return ThickTriple(dom=dom, cod=cod, z=z, t=t, b=b)


def pad_thickener(tr: ThickTriple, w: ObjectRef, junk: Morphism) -> ThickTriple:
    """Enlarge the thickening object to Z (+) W: the sum of tr and the
    triple (W, 0, junk), for an arbitrary junk map W (x) X -> I.  Both psi
    and tr_hat ignore the padding (the W component of t is zero)."""
    inst = instance_of(tr.dom)
    # the zero object comes before tensor_obj, so that a non-additive
    # instance says so rather than reporting a label collision in Y (x) W
    inst.zero_object()
    t = inst.zero_mor(inst.unit_object(), inst.tensor_obj(tr.cod, w))
    return add_triples(tr, ThickTriple(dom=tr.dom, cod=tr.cod, z=w, t=t, b=junk))


# -- braided tensor product ---------------------------------------------------


def tensor_triples(tr1: ThickTriple, tr2: ThickTriple) -> ThickTriple:
    """Tensor product of triples over Z = Z1 (x) Z2.

    The two crossings are pinned by the multiplicativity of psi in a
    non-symmetric instance: the top one is the over-crossing braiding
    c_{Z1,Y2}: Z1 (x) Y2 -> Y2 (x) Z1, the bottom one the inverse braiding
    Z2 (x) X1 -> X1 (x) Z2; with both read the same way multiplicativity
    fails at mixed degrees.
    """
    inst = instance_of(tr1.dom)
    # the braiding comes before tensor_obj, so that a non-braided instance
    # says so rather than reporting a label collision in Z1 (x) Z2
    chi_t = inst.braiding_c(tr1.z, tr2.cod)
    z = inst.tensor_obj(tr1.z, tr2.z)
    t = inst.compose(
        inst.tensor(inst.tensor(inst.identity(tr1.cod), chi_t), inst.identity(tr2.z)),
        inst.tensor(tr1.t, tr2.t),
    )
    chi_b = inst.braiding_c_inv(tr1.dom, tr2.z)
    b = inst.compose(
        inst.tensor(tr1.b, tr2.b),
        inst.tensor(inst.tensor(inst.identity(tr1.z), chi_b), inst.identity(tr2.dom)),
    )
    return ThickTriple(
        dom=inst.tensor_obj(tr1.dom, tr2.dom),
        cod=inst.tensor_obj(tr1.cod, tr2.cod),
        z=z,
        t=t,
        b=b,
    )


def canonical_thickener(f: Morphism) -> ThickTriple:
    """For f: X -> Y out of a dualizable object: (X*, (f (x) id_X*) . coev, ev)."""
    inst = instance_of(f)
    xd, ev, _coev = inst.dual_data(f.source)
    t = getattr(inst, "canonical_thickener_kernel", canonical_thickener_composite)(f, xd)
    return ThickTriple(dom=f.source, cod=f.target, z=xd, t=t, b=ev)


def canonical_thickener_composite(f: Morphism, xd: ObjectRef) -> Morphism:
    """The t of canonical_thickener as the composite (f (x) id_X*) . coev,
    with coev from dual_data; the reference."""
    inst = instance_of(f)
    coev = inst.dual_data(f.source)[2]
    return inst.compose(inst.tensor(f, inst.identity(xd)), coev)
