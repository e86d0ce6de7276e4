"""Unextendible mutually unbiased bases from maximal commuting Pauli classes.

The package builds complete sets of mutually disjoint maximal commuting
classes of n-qubit Pauli operators, constructs the unextendible subsets they
contain, synthesizes the corresponding mutually unbiased bases, and verifies
the collision-entropy and contextuality consequences, emitting re-checkable
JSON certificates along the way.
"""

from mubforge.analysis import (
    EurReport,
    UnbiasedVectorProblem,
    KsContextSet,
    KsReport,
    SearchOutcome,
    collision_entropy,
    d8_double_partition_verify,
    eur_bound,
    eur_check,
    ks_alternate_partition,
    ks_sign_verify,
    residual,
    strong_unext_search,
)
from mubforge.bases import (
    MubBasis,
    SignedGroup,
    eigenbasis,
    labels_hamming_check,
    unbiasedness_deviation,
)
from mubforge.classes import (
    ClassSet,
    CommutingClass,
    canonical_complete_set,
    class_from_elements,
    class_from_generators,
    class_from_mask,
    class_from_strings,
    commuting_overlap,
    complete_set_from_two,
    disjoint,
)
from mubforge.pauli import (
    PauliOperator,
    commutes,
    enumerate_nonidentity,
    independent,
    multiply,
    pauli_from_string,
)
from mubforge.unextendible import (
    ConjectureScanReport,
    ExtensionReport,
    UnextendibleSet,
    build_unextendible_set,
    conjecture_scan,
    extendibility_check,
    extra_classes_within_union,
    theorem4_census,
    verify_no_weak_4set_d4,
)

__version__ = "0.1.0"

__all__ = [
    "ClassSet",
    "CommutingClass",
    "ConjectureScanReport",
    "EurReport",
    "ExtensionReport",
    "KsContextSet",
    "KsReport",
    "MubBasis",
    "PauliOperator",
    "SearchOutcome",
    "SignedGroup",
    "UnbiasedVectorProblem",
    "UnextendibleSet",
    "build_unextendible_set",
    "canonical_complete_set",
    "class_from_elements",
    "class_from_generators",
    "class_from_mask",
    "class_from_strings",
    "collision_entropy",
    "commutes",
    "commuting_overlap",
    "complete_set_from_two",
    "conjecture_scan",
    "d8_double_partition_verify",
    "disjoint",
    "eigenbasis",
    "enumerate_nonidentity",
    "eur_bound",
    "eur_check",
    "extendibility_check",
    "extra_classes_within_union",
    "independent",
    "ks_alternate_partition",
    "ks_sign_verify",
    "labels_hamming_check",
    "multiply",
    "pauli_from_string",
    "residual",
    "strong_unext_search",
    "theorem4_census",
    "unbiasedness_deviation",
    "verify_no_weak_4set_d4",
]
