"""Combinatorial specifications of permutation classes: construction from a
finite basis and the class's simple permutations, exact counting, and uniform
random sampling, with brute-force oracles for verification."""

from .counting import (
    class_counts,
    coefficients,
    quadratic_residual,
    substitution_closed_spec,
)
from .disambiguate import (
    add_mandatory,
    ambiguous_system,
    disambiguate,
    eqn_for_restriction,
    specification,
)
from .embeddings import all_embeddings
from .errors import PermspecError
from .oracle import (
    audit_specification,
    class_members,
    closure_members,
    enumerate_class,
    member_of_restriction,
    simples_in_class,
)
from .perms import (
    EMPTY,
    MINUS,
    ONE,
    PLUS,
    Permutation,
    avoids,
    contains,
    decompose,
    generalized_substitute,
    in_closure,
    intervals_from,
    is_simple,
    normalize,
    occurrences,
    perm,
    substitute,
)
from .restrictions import (
    Equation,
    Restriction,
    RestrictionTerm,
    complement_restriction,
    complement_term,
    intersect_restrictions,
    intersect_terms,
    is_empty_sufficient,
    restriction,
    subset_sufficient,
)
from .sampler import (
    build_tables,
    derivation_probability,
    heatmap,
    rank,
    sample,
    sample_many,
    unrank,
)
from .system import (
    Basis,
    EquationSystem,
    SimpleSet,
    add_constraints,
    basis_of,
    closure_equation,
    empty_restrictions,
    simple_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
