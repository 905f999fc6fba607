"""The public API is pinned: a change to it edits this list on purpose."""

import permspec as ps

PUBLIC = [
    "Basis", "EMPTY",
    "Equation", "EquationSystem", "MINUS", "ONE", "PLUS",
    "PermspecError", "Permutation", "Restriction",
    "RestrictionTerm", "SimpleSet", "add_constraints", "add_mandatory",
    "all_embeddings", "ambiguous_system", "audit_specification", "avoids",
    "basis_of", "build_tables",
    "class_counts", "class_members", "closure_equation", "closure_members",
    "coefficients", "complement_restriction", "complement_term", "contains",
    "counting", "decompose", "derivation_probability",
    "disambiguate", "embeddings", "empty_restrictions",
    "enumerate_class",
    "eqn_for_restriction", "errors", "generalized_substitute", "heatmap",
    "in_closure", "intersect_restrictions", "intersect_terms",
    "intervals_from", "is_empty_sufficient", "is_simple",
    "member_of_restriction", "normalize", "occurrences", "oracle", "perm",
    "perms", "quadratic_residual", "rank", "restriction", "restrictions",
    "sample", "sample_many", "sampler", "simple_set", "simples_in_class",
    "specification", "subset_sufficient", "substitute",
    "substitution_closed_spec", "system", "unrank",
]


def test_public_names_are_pinned():
    assert sorted(ps.__all__) == PUBLIC
