"""Abstract interface implemented by every category instance.

An instance is a strict monoidal category with a chosen natural family of
switching isomorphisms s_{X,Y}: X (x) Y -> Y (x) X.  Strictness is real:
tensoring objects is an associative value-level operation with the unit
object as a genuine two-sided unit, so no associators or unitors appear
anywhere in the interface.

Objects and morphisms are immutable values tagged with the id of their
owning instance; all equality checks are exact on canonical forms.

Sums, braiding, twist and duals are optional, and the class is the only
record of them: an instance has one exactly when its class overrides the
stub below, which raises CapabilityMissing; `provides` asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple

from .errors import CapabilityMissing, DomainMismatch, InstanceMismatch


@dataclass(frozen=True)
class ObjectRef:
    instance_id: str
    payload: Any


@dataclass(frozen=True)
class Morphism:
    instance_id: str
    source: ObjectRef
    target: ObjectRef
    payload: Any

    def __repr__(self):
        return f"Morphism[{self.instance_id}]({self.source.payload} -> {self.target.payload})"


class DirectSum(NamedTuple):
    """A biproduct X (+) Y with its canonical injections and projections."""

    obj: ObjectRef
    inj1: Morphism
    inj2: Morphism
    proj1: Morphism
    proj2: Morphism


class CategoryInstance:
    """Base class; concrete instances override the abstract operations.

    The monoidal structure and the switching are required.  The additive,
    braided/balanced and dual operations are optional: an instance that
    lacks one inherits its stub, which raises CapabilityMissing.
    """

    instance_id: str

    # -- plumbing ---------------------------------------------------------

    def _own_obj(self, x: ObjectRef):
        if x.instance_id != self.instance_id:
            raise InstanceMismatch(f"object of {x.instance_id!r} used in {self.instance_id!r}")

    def _own_mor(self, f: Morphism):
        if f.instance_id != self.instance_id:
            raise InstanceMismatch(f"morphism of {f.instance_id!r} used in {self.instance_id!r}")

    def provides(self, op: str) -> bool:
        """Whether this instance has the optional operation `op`, i.e. its
        class overrides the base stub."""
        return getattr(type(self), op) is not getattr(CategoryInstance, op)

    # -- monoidal structure ------------------------------------------------

    def unit_object(self) -> ObjectRef:
        raise NotImplementedError

    def tensor_obj(self, x: ObjectRef, y: ObjectRef) -> ObjectRef:
        raise NotImplementedError

    def identity(self, x: ObjectRef) -> Morphism:
        raise NotImplementedError

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; defined when target(f) = source(g)."""
        raise NotImplementedError

    def tensor(self, f: Morphism, g: Morphism) -> Morphism:
        raise NotImplementedError

    def switching(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """The chosen natural isomorphism X (x) Y -> Y (x) X."""
        raise NotImplementedError

    def mor_equal(self, f: Morphism, g: Morphism) -> bool:
        self._own_mor(f)
        self._own_mor(g)
        return f == g

    # -- additive capability ------------------------------------------------

    def zero_object(self) -> ObjectRef:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not additive")

    def direct_sum(self, x: ObjectRef, y: ObjectRef) -> DirectSum:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not additive")

    def add_mor(self, f: Morphism, g: Morphism) -> Morphism:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not additive")

    def negate_mor(self, f: Morphism) -> Morphism:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not additive")

    def zero_mor(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not additive")

    # -- braided / balanced capability --------------------------------------

    def braiding_c(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """Braiding X (x) Y -> Y (x) X (the over-crossing)."""
        raise CapabilityMissing(f"instance {self.instance_id!r} is not braided")

    def braiding_c_inv(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """Inverse braiding Y (x) X -> X (x) Y, so c_inv(x,y) . c(x,y) = id."""
        raise CapabilityMissing(f"instance {self.instance_id!r} is not braided")

    def twist_theta(self, x: ObjectRef) -> Morphism:
        raise CapabilityMissing(f"instance {self.instance_id!r} is not balanced")

    # -- duals ---------------------------------------------------------------

    def dual_data(self, x: ObjectRef):
        """Return (dual, ev, coev) satisfying the zigzag identities."""
        raise CapabilityMissing(f"instance {self.instance_id!r} has no duals")

    # -- helpers used across the package -------------------------------------

    def disjoint_copy(self, x: ObjectRef, avoid=()):
        """(x', to_orig: x' -> x, from_orig: x -> x').

        Instances whose tensor requires disjoint carriers (point labels)
        override this to hand out a relabelled copy; everywhere else the
        copy is x itself with identity isos.
        """
        ident = self.identity(x)
        return x, ident, ident

    def check_composable(self, g: Morphism, f: Morphism):
        self._own_mor(g)
        self._own_mor(f)
        if f.target != g.source:
            raise DomainMismatch(f"cannot compose: inner target {f.target.payload!r}"
                                 f" != outer source {g.source.payload!r}")

    def is_scalar(self, f: Morphism) -> bool:
        unit = self.unit_object()
        return f.source == unit and f.target == unit


# -- instance registry ---------------------------------------------------

_REGISTRY: dict[str, CategoryInstance] = {}


def register_instance(inst: CategoryInstance) -> CategoryInstance:
    _REGISTRY[inst.instance_id] = inst
    return inst


def get_instance(instance_id: str) -> CategoryInstance:
    """Resolve an instance id such as "finvect" or "graded(q=2)".

    Known instances are created lazily and cached, so object and morphism
    values with equal instance ids always share one instance object; so do
    spellings of one graded instance ("graded(q=6/4)", "graded(q=3/2)").
    """
    if instance_id in _REGISTRY:
        return _REGISTRY[instance_id]
    from . import bordism, graded, vect  # deferred to avoid import cycles

    if instance_id == "finvect":
        return register_instance(vect.FinVect())
    if instance_id == "supervect":
        return register_instance(vect.SuperVect())
    if instance_id == "rbord1":
        return register_instance(bordism.RBord1())
    if instance_id.startswith("graded(q=") and instance_id.endswith(")"):
        from ._rat import parse_rat, rat_str

        q = parse_rat(instance_id[len("graded(q=") : -1])
        canonical = f"graded(q={rat_str(q)})"  # "q=6/4" is "q=3/2"
        if canonical in _REGISTRY:
            return _REGISTRY[canonical]
        return register_instance(graded.GradedVect(q))
    raise KeyError(f"unknown instance id {instance_id!r}")


def instance_of(value) -> CategoryInstance:
    return get_instance(value.instance_id)
