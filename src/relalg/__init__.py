"""Finite-model workbench for point-free relation algebra.

Relations over small named carriers with the full operator kit (composition,
converse, lattice operations, residuals/factors, domain operators), index and
core computation with machine-checked certificates, isomorphism search,
point/pair decomposition, a quantified law suite, and axiom checking for
small abstract models of the algebra.
"""

from .domains import (
    PredicateReport,
    classify,
    difunctional_characterizations,
    enumerate_pers,
    is_bijection,
    is_core_relation,
    is_coreflexive,
    is_difunctional,
    is_functional,
    is_injective,
    is_per,
    is_rectangle,
    is_square,
    ldom,
    per_characterizations,
    per_ldom,
    per_rdom,
    rdom,
)
from .factors import left_residual, right_residual, sym_left_div, sym_right_div
from .indexcore import (
    CORE_MODES,
    POLICIES,
    CoreDecomposition,
    IndexCertificate,
    _fixed_pick,
    _per_classes,
    _quotient_carrier,
    candidate_indexes,
    core_of,
    per_index,
    relation_index,
    splitting,
    verify_index,
)
from .isomorph import IsoWitness, SearchSpaceExceeded, find_isomorphism, verify_witness
from .models import (
    AbstractModel,
    AxiomReport,
    BUNDLED_NAMES,
    ModelFormatError,
    bundled_models,
    check_axioms,
    load_bundled,
    load_model,
    recheck,
)
from .points import (
    all_or_nothing,
    decompose_to_pairs,
    is_atom,
    is_pair,
    is_particle,
    is_point,
    pair_rel,
    points,
    union_all,
)
from .rel import (
    Carrier,
    CarrierMismatch,
    EnumerationLimit,
    Relation,
    RelationFormatError,
    bottom,
    complement,
    compose,
    converse,
    coreflexive,
    enumerate_coreflexives,
    enumerate_relations,
    equals,
    from_dict,
    from_pairs,
    identity,
    intersect,
    is_subset,
    to_dict,
    top,
    union,
)

__version__ = "0.1.0"

# The memoized kernel operations, each exposing the cache_info and cache_clear
# of the private memo on codes and sizes that answers it (see rel), the
# per-partition memos of indexcore, and the bundled models: cache_clear empties
# every memo through them.
_MEMOIZED = (
    compose, converse, complement, left_residual, right_residual, sym_left_div, sym_right_div,
    ldom, rdom, per_ldom, per_rdom, _per_classes, _fixed_pick, _quotient_carrier, load_bundled,
)


def cache_clear() -> None:
    """Drop all memoized results: the kernel operations, the per-partition
    memos and the bundled models, which the next load_bundled reads again
    (tests use this between phases)."""
    for fn in _MEMOIZED:
        fn.cache_clear()


__all__ = [
    "AbstractModel",
    "AxiomReport",
    "BUNDLED_NAMES",
    "CORE_MODES",
    "Carrier",
    "CarrierMismatch",
    "CoreDecomposition",
    "EnumerationLimit",
    "IndexCertificate",
    "IsoWitness",
    "ModelFormatError",
    "POLICIES",
    "PredicateReport",
    "Relation",
    "RelationFormatError",
    "SearchSpaceExceeded",
    "all_or_nothing",
    "bottom",
    "bundled_models",
    "cache_clear",
    "candidate_indexes",
    "check_axioms",
    "classify",
    "complement",
    "compose",
    "converse",
    "core_of",
    "coreflexive",
    "decompose_to_pairs",
    "difunctional_characterizations",
    "enumerate_coreflexives",
    "enumerate_pers",
    "enumerate_relations",
    "equals",
    "find_isomorphism",
    "from_dict",
    "from_pairs",
    "identity",
    "intersect",
    "is_atom",
    "is_bijection",
    "is_core_relation",
    "is_coreflexive",
    "is_difunctional",
    "is_functional",
    "is_injective",
    "is_pair",
    "is_particle",
    "is_per",
    "is_point",
    "is_rectangle",
    "is_square",
    "is_subset",
    "ldom",
    "left_residual",
    "load_bundled",
    "load_model",
    "pair_rel",
    "per_characterizations",
    "per_index",
    "per_ldom",
    "per_rdom",
    "points",
    "rdom",
    "recheck",
    "relation_index",
    "right_residual",
    "splitting",
    "sym_left_div",
    "sym_right_div",
    "to_dict",
    "top",
    "union",
    "union_all",
    "verify_index",
    "verify_witness",
]
