"""Unextendible mutually unbiased bases from maximal commuting Pauli classes.

The package builds complete sets of mutually disjoint maximal commuting
classes of n-qubit Pauli operators, constructs the unextendible subsets they
contain, synthesizes the corresponding mutually unbiased bases, and verifies
the collision-entropy and contextuality consequences, emitting re-checkable
JSON certificates along the way.
"""

from mubforge.analysis import (
    UnbiasedVectorProblem,
    SearchOutcome,
    collision_entropy,
    context_sign,
    eur_bound,
    eur_check,
    ks_alternate_partition,
    residual,
    strong_unext_search,
)
from mubforge.bases import eigenbasis
from mubforge.classes import (
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_elements,
    class_from_generators,
    class_from_mask,
    class_from_strings,
    complete_set_from,
)
from mubforge.pauli import (
    PauliOperator,
    commutes,
    independent,
    multiply,
    pauli_from_string,
)
from mubforge.unextendible import (
    ConjectureScanReport,
    build_unextendible_set,
    conjecture_scan,
    extendibility_check,
    extra_classes_within_union,
)

__version__ = "0.1.0"

__all__ = [
    "ClassSet",
    "CommutingClass",
    "ConjectureScanReport",
    "PauliOperator",
    "SearchOutcome",
    "UnbiasedVectorProblem",
    "build_unextendible_set",
    "canonical_complete_set",
    "class_from_elements",
    "class_from_generators",
    "class_from_mask",
    "class_from_strings",
    "collision_entropy",
    "commutes",
    "complete_set_from",
    "conjecture_scan",
    "context_sign",
    "eigenbasis",
    "eur_bound",
    "eur_check",
    "extendibility_check",
    "extra_classes_within_union",
    "independent",
    "ks_alternate_partition",
    "multiply",
    "pauli_from_string",
    "residual",
    "strong_unext_search",
]
