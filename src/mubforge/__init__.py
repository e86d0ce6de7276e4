"""Unextendible mutually unbiased bases from maximal commuting Pauli classes.

The package builds complete sets of mutually disjoint maximal commuting
classes of n-qubit Pauli operators, constructs the unextendible subsets they
contain, synthesizes the corresponding mutually unbiased bases, and verifies
the collision-entropy and contextuality consequences, emitting re-checkable
JSON certificates along the way.

The numeric layer, ``mubforge.analysis`` and ``mubforge.bases``, loads on
first use: importing the package puts both modules in ``sys.modules`` and
on the package, through ``importlib.util.LazyLoader``, but neither is
compiled or run until one of its attributes is first read. The
combinatorial commands never read one, so a process that runs them without
cached bytecode does not compile those modules. Every name in ``__all__``
not bound at import is theirs, served by the module ``__getattr__`` from
``analysis``, which loads it. Plain imports inside the functions would
spare the combinatorial commands the same work, but the benchmark's tracer
(perfbench/spans.py) patches only the layer modules that are in
``sys.modules`` when it installs, right after this import; reading an
attribute of a lazy module runs it, so the tracer still patches every
layer.

For the same start-up cost, no module imports ``dataclasses``, which would
pull in ``inspect``, ``ast``, ``dis`` and ``tokenize`` at the start of
every command: records are ``typing.NamedTuple``s, and the two classes
with their own equality, ``CommutingClass`` and ``ClassSet``, are small
``__slots__`` classes.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

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
from mubforge.pauli import PauliOperator, commutes, multiply, pauli_from_string
from mubforge.unextendible import (
    ConjectureScanReport,
    build_unextendible_set,
    conjecture_scan,
    context_sign,
    extendibility_check,
    extra_classes_within_union,
    ks_alternate_partition,
)


def _lazy(name: str):
    """Register module ``name``, to be run when an attribute is first read."""
    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


bases = _lazy("mubforge.bases")
analysis = _lazy("mubforge.analysis")

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
    "ks_alternate_partition",
    "multiply",
    "pauli_from_string",
    "residual",
    "strong_unext_search",
]


def __getattr__(name: str):
    # analysis binds every numeric name, eigenbasis from bases included
    if name in __all__:
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
