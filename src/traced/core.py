"""Abstract interface implemented by every category instance.

An instance is a strict monoidal category with a chosen natural family of
switching isomorphisms s_{X,Y}: X (x) Y -> Y (x) X.  Strictness is real:
tensoring objects is an associative value-level operation with the unit
object as a genuine two-sided unit, so no associators or unitors appear
anywhere in the interface.

Objects and morphisms are immutable values tagged with the id of their
owning instance; all equality checks are exact on canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

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


@dataclass(frozen=True)
class Capabilities:
    """Static capability flags declared by an instance.

    symmetric implies balanced (with identity twist) and balanced implies
    braided; the constructor enforces the implications.
    """

    additive: bool = False
    braided: bool = False
    balanced: bool = False
    symmetric: bool = False
    has_duals: Callable[[ObjectRef], bool] = lambda _x: False

    def __post_init__(self):
        if self.symmetric and not self.balanced:
            raise ValueError("symmetric instances must declare balanced")
        if self.balanced and not self.braided:
            raise ValueError("balanced instances must declare braided")


class DirectSum(NamedTuple):
    """A biproduct X (+) Y with its canonical injections and projections."""

    obj: ObjectRef
    inj1: Morphism
    inj2: Morphism
    proj1: Morphism
    proj2: Morphism


class CategoryInstance:
    """Base class; concrete instances override the abstract operations."""

    instance_id: str
    capabilities: Capabilities

    # -- plumbing ---------------------------------------------------------

    def _own_obj(self, x: ObjectRef):
        if x.instance_id != self.instance_id:
            raise InstanceMismatch(f"object of {x.instance_id!r} used in {self.instance_id!r}")

    def _own_mor(self, f: Morphism):
        if f.instance_id != self.instance_id:
            raise InstanceMismatch(f"morphism of {f.instance_id!r} used in {self.instance_id!r}")

    def _need(self, flag: str):
        if not getattr(self.capabilities, flag):
            raise CapabilityMissing(f"instance {self.instance_id!r} is not {flag}")

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
        self._need("additive")
        raise NotImplementedError

    def direct_sum(self, x: ObjectRef, y: ObjectRef) -> DirectSum:
        self._need("additive")
        raise NotImplementedError

    def add_mor(self, f: Morphism, g: Morphism) -> Morphism:
        self._need("additive")
        raise NotImplementedError

    def negate_mor(self, f: Morphism) -> Morphism:
        self._need("additive")
        raise NotImplementedError

    def zero_mor(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        self._need("additive")
        raise NotImplementedError

    # -- braided / balanced capability --------------------------------------

    def braiding_c(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """Braiding X (x) Y -> Y (x) X (the over-crossing)."""
        self._need("braided")
        raise NotImplementedError

    def braiding_c_inv(self, x: ObjectRef, y: ObjectRef) -> Morphism:
        """Inverse braiding Y (x) X -> X (x) Y, so c_inv(x,y) . c(x,y) = id."""
        self._need("braided")
        raise NotImplementedError

    def twist_theta(self, x: ObjectRef) -> Morphism:
        self._need("balanced")
        raise NotImplementedError

    # -- duals ---------------------------------------------------------------

    def has_dual(self, x: ObjectRef) -> bool:
        return self.capabilities.has_duals(x)

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
            raise DomainMismatch(
                f"cannot compose: inner target {f.target.payload!r} != outer source {g.source.payload!r}"
            )

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
