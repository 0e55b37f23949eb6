"""Exact-arithmetic engine for categorical traces in monoidal categories
with switching isomorphisms, over four concrete instances: rational vector
spaces, super vector spaces, q-graded spaces, and 1-d Riemannian bordisms.
"""

from .core import (
    CategoryInstance,
    DirectSum,
    Morphism,
    ObjectRef,
    get_instance,
    instance_of,
)
from .errors import (
    CapabilityMissing,
    DirectedBordismRequired,
    DomainMismatch,
    InstanceMismatch,
    LexError,
    NonIntegerLength,
    NotBordism,
    NotEndo,
    ParseError,
    TracedError,
    TypecheckError,
)
from .matrices import RatMatrix
from .thickened import (
    SlideWitness,
    ThickTriple,
    add_triples,
    canonical_thickener,
    hat_comp_witness,
    negate_triple,
    pad_thickener,
    post_compose,
    pre_compose,
    psi,
    slide_pair,
    tensor_triples,
    tr_hat,
    trace_pairing,
    zero_triple,
)
from .vect import alpha, phi, phi_inv
from .field_theory import FieldTheory, field_theory
from ._rat import parse_rat, rat, rat_str

__version__ = "0.1.0"

__all__ = [
    "CategoryInstance",
    "DirectSum",
    "Morphism",
    "ObjectRef",
    "RatMatrix",
    "SlideWitness",
    "ThickTriple",
    "FieldTheory",
    "add_triples",
    "alpha",
    "canonical_thickener",
    "field_theory",
    "get_instance",
    "hat_comp_witness",
    "instance_of",
    "negate_triple",
    "pad_thickener",
    "parse_rat",
    "phi",
    "phi_inv",
    "post_compose",
    "pre_compose",
    "psi",
    "rat",
    "rat_str",
    "slide_pair",
    "tensor_triples",
    "tr_hat",
    "trace_pairing",
    "zero_triple",
    "TracedError",
    "InstanceMismatch",
    "DomainMismatch",
    "CapabilityMissing",
    "NotEndo",
    "NotBordism",
    "NonIntegerLength",
    "DirectedBordismRequired",
    "LexError",
    "ParseError",
    "TypecheckError",
]
