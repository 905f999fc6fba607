import itertools
import random
import time

import pytest

import permspec as ps
from permspec.errors import (
    InvalidInputError,
    NotAntichainError,
    TrivialClassError,
)
from permspec.perms import _simple_deletions
from permspec.restrictions import RestrictionTerm, provably_empty, restriction
from permspec.system import empty_restrictions, propagated_blocks, prune_terms
from props import (
    all_perms,
    check_add_constraints_semantics,
    check_system_structure,
    parallel_alternations,
    simple_by_intervals,
    simple_patterns_by_subsets,
)

P = ps.perm


def R(delta="", avoid=(), contain=()):
    return restriction(delta, [P(a) for a in avoid], [P(c) for c in contain])


def term_strs(eq):
    return {str(t) for t in eq.terms}


def test_closure_equation_plain_with_simple():
    eq = ps.closure_equation("", ps.simple_set([P("3142")]))
    assert eq.has_one and eq.disjoint
    assert term_strs(eq) == {
        "plus[C+<>, C<>]",
        "minus[C-<>, C<>]",
        "3142[C<>, C<>, C<>, C<>]",
    }


def test_closure_equation_plus_minus():
    assert term_strs(ps.closure_equation("+", ps.simple_set([]))) == {"minus[C-<>, C<>]"}
    assert term_strs(ps.closure_equation("-", ps.simple_set([]))) == {"plus[C+<>, C<>]"}


def test_basis_validation():
    with pytest.raises(TrivialClassError):
        ps.basis_of([P("1")])
    with pytest.raises(TrivialClassError):
        ps.basis_of([])
    with pytest.raises(NotAntichainError):
        ps.basis_of([P("132"), P("1432")])
    b = ps.basis_of([P("1243"), P("2341"), P("2413"), P("41352"), P("531642")])
    assert b.b_star == (P("1243"), P("2341"))


def test_simple_set_validation():
    with pytest.raises(InvalidInputError):
        ps.simple_set([P("123")])


def test_large_simple_set_is_checked_in_polynomial_time():
    # a check exponential in the member size fails the bound: the scan of
    # all 2^20 position subsets of the largest member takes about 30 s
    alternations = parallel_alternations(20)
    start = time.perf_counter()
    ps.simple_set(alternations)
    assert time.perf_counter() - start < 2.0
    # 2413 is a two-point deletion of 246135, which has no simple one-point one
    with pytest.raises(InvalidInputError, match="is missing from the set"):
        ps.simple_set(alternations[1:])


def seeded_simples():
    """50 seeded random simple permutations of size 8 or 9."""
    rng = random.Random(23)
    out = []
    while len(out) < 50:
        n = rng.choice((8, 9))
        p = ps.Permutation(rng.sample(range(1, n + 1), n))
        if simple_by_intervals(p):
            out.append(p)
    return out


def test_simple_deletions_reach_every_simple_pattern():
    # repeated one- and two-point deletions through simple permutations
    # find exactly the simple patterns that the all-subsets scan lists
    exhaustive = [p for n in range(4, 8) for p in all_perms(n) if simple_by_intervals(p)]
    for s in exhaustive + seeded_simples():
        reached, frontier = {s}, {s}
        while frontier:
            frontier = set().union(*map(_simple_deletions, frontier)) - reached
            reached |= frontier
        assert reached == simple_patterns_by_subsets(s) | {s}, s


def test_add_constraints_minus_231():
    t = RestrictionTerm(ps.MINUS, (R("-"), R()))
    out = ps.add_constraints(t, P("231"))
    assert {str(u) for u in out} == {"minus[C-<12>, C<231>]"}


def test_add_constraints_minus_3412():
    t = RestrictionTerm(ps.MINUS, (R("-"), R()))
    out = ps.add_constraints(t, P("3412"))
    assert {str(u) for u in out} == {
        "minus[C-<12>, C<3412>]",
        "minus[C-<3412>, C<12>]",
    }


def test_add_constraints_blocked_root_gives_empty_union():
    # every embedding of 21 into a 21 root can use two singleton blocks,
    # which no non-empty child can avoid
    t = RestrictionTerm(ps.MINUS, (R("-"), R()))
    assert ps.add_constraints(t, P("21")) == ()


def test_add_constraints_rejects_tiny_patterns():
    t = RestrictionTerm(ps.PLUS, (R("+"), R()))
    with pytest.raises(InvalidInputError):
        ps.add_constraints(t, P("1"))


def test_add_constraints_132_into_3142_is_empty():
    # 3142 has an occurrence of 132 on single positions, so every inflation
    # of it contains 132 and the constrained term denotes nothing
    t = RestrictionTerm(P("3142"), (R(),) * 4)
    assert ps.add_constraints(t, P("132")) == ()
    assert naive_constraint_vectors(t, P("132")) == []


def naive_constraint_vectors(t, g):
    """Reference tuple-set enumeration: the full product over embeddings of
    one blocking child each, no pruning."""
    # a child can block an embedding when its block has size at least 2
    per = [
        (emb, [k for k, block in enumerate(emb) if len(block) >= 2])
        for emb in ps.all_embeddings(g, t.root)
    ]
    if any(not cands for _, cands in per):
        return []
    out = []
    for combo in itertools.product(*[cands for _, cands in per]):
        additions = [set() for _ in range(len(t.root))]
        for (emb, _), k in zip(per, combo):
            additions[k].add(emb[k])
        out.append(additions)
    return out


@pytest.mark.parametrize(
    "root,g",
    [
        (ps.PLUS, "1243"),
        (ps.MINUS, "2341"),
        ("3142", "1243"),
        ("3142", "2143"),
        ("2413", "2143"),
    ],
)
def test_raw_vectors_always_carry_the_pattern(root, g):
    root = P(root) if isinstance(root, str) else root
    if root == ps.PLUS:
        t = RestrictionTerm(root, (R("+"), R()))
    elif root == ps.MINUS:
        t = RestrictionTerm(root, (R("-"), R()))
    else:
        t = RestrictionTerm(root, (R(),) * len(root))
    vectors = naive_constraint_vectors(t, P(g))
    assert vectors
    for additions in vectors:
        for m in range(len(root)):
            assert P(g) in additions[m]


@pytest.mark.parametrize(
    "root,g",
    [(ps.PLUS, "132"), (ps.MINUS, "3412"), ("3142", "132"), ("3142", "2143")],
)
def test_add_constraints_matches_naive_product(root, g):
    root = P(root) if isinstance(root, str) else root
    if root == ps.PLUS:
        t = RestrictionTerm(root, (R("+"), R()))
    elif root == ps.MINUS:
        t = RestrictionTerm(root, (R("-"), R()))
    else:
        t = RestrictionTerm(root, (R(),) * len(root))
    naive = []
    for additions in naive_constraint_vectors(t, P(g)):
        children = tuple(
            ps.intersect_restrictions(c, restriction(c.delta, adds))
            for c, adds in zip(t.children, additions)
        )
        naive.append(RestrictionTerm(t.root, children))
    assert set(ps.add_constraints(t, P(g))) == set(prune_terms(tuple(naive)))


def test_systems_and_equations_print_one_line_per_equation(av132_spec):
    # disjoint unions print with " + ", ambiguous ones with " | ", and an
    # equation with neither the atom nor a term as EMPTY
    assert str(av132_spec).splitlines() == [
        "C<132> = 1 + plus[C+<132>, C<21>] + minus[C-<132>, C<132>]",
        "C+<132> = 1 + minus[C-<132>, C<132>]",
        "C<21> = 1 + plus[C+<21>, C<21>]",
        "C-<132> = 1 + plus[C+<132>, C<21>]",
        "C+<21> = 1",
    ]
    eq = ps.eqn_for_restriction("", [P("2143")], (), ps.simple_set([]))
    assert str(eq) == (
        "C<2143> = 1 | plus[C+<21>, C<2143>] | plus[C+<2143>, C<21>] | minus[C-<2143>, C<2143>]"
    )
    assert str(ps.eqn_for_restriction("", [P("12")], [P("123")], ps.simple_set([]))) == (
        "C<12>(123) = EMPTY"
    )


def test_eqn_for_restriction_avoid_only_1243(big_simples):
    eq = ps.eqn_for_restriction("", [P("1243")], (), big_simples)
    assert eq.has_one and not eq.disjoint
    assert term_strs(eq) == {
        "plus[C+<12>, C<132>]",
        "plus[C+<1243>, C<21>]",
        "minus[C-<1243>, C<1243>]",
        "3142[C<1243>, C<12>, C<21>, C<132>]",
        "3142[C<12>, C<12>, C<132>, C<132>]",
    }


def test_eqn_for_restriction_avoid_only_both_big_patterns(big_simples):
    eq = ps.eqn_for_restriction("", [P("1243"), P("2341")], (), big_simples)
    assert term_strs(eq) == {
        "plus[C+<1243,2341>, C<21>]",
        "plus[C+<12>, C<132,2341>]",
        "minus[C-<123>, C<1243,2341>]",
        "3142[C<12>, C<12>, C<12>, C<132,2341>]",
    }


def test_eqn_for_restriction_avoid_only_21():
    eq = ps.eqn_for_restriction("", [P("21")], (), ps.simple_set([]))
    assert term_strs(eq) == {"plus[C+<21>, C<21>]"}


def test_ambiguous_system_example_class():
    basis = ps.basis_of([P("1243"), P("2413"), P("531642"), P("41352")])
    system = ps.ambiguous_system(basis, ps.simple_set([P("3142")]))
    eqs = {str(lhs): term_strs(eq) for lhs, eq in system.equations.items()}
    assert eqs["C<1243>"] == {
        "plus[C+<12>, C<132>]",
        "plus[C+<1243>, C<21>]",
        "minus[C-<1243>, C<1243>]",
        "3142[C<1243>, C<12>, C<21>, C<132>]",
        "3142[C<12>, C<12>, C<132>, C<132>]",
    }
    assert eqs["C+<12>"] == {"minus[C-<12>, C<12>]"}
    assert eqs["C<132>"] == {"plus[C+<132>, C<21>]", "minus[C-<132>, C<132>]"}
    assert eqs["C<21>"] == {"plus[C+<21>, C<21>]"}


def test_ambiguous_system_big_class(big_basis, big_simples):
    system = ps.ambiguous_system(big_basis, big_simples)
    assert len(system.equations) == 12
    check_system_structure(system, big_basis)
    assert not all(eq.disjoint for eq in system.equations.values())


def test_ambiguous_system_substitution_closed_basis():
    basis = ps.basis_of([P("2413"), P("3142")])
    system = ps.ambiguous_system(basis, ps.simple_set([]))
    assert len(system.equations) == 3
    assert all(eq.disjoint for eq in system.equations.values())
    assert str(system.root) == "C<>"


def test_system_size_within_block_bound(av132_basis, sep_subclass_basis, big_basis, big_simples):
    """Every constraint is a block of a propagated basis element and no key is
    provably empty, so a system has at most 3^|B| equations (3 when B is
    empty: the closure's own three)."""
    separable = ps.basis_of([P("2413"), P("3142")])
    for basis, simples in (
        (av132_basis, ps.simple_set([])),
        (sep_subclass_basis, ps.simple_set([])),
        (big_basis, big_simples),
        (separable, ps.simple_set([])),
    ):
        bound = 3 ** max(1, len(propagated_blocks(basis)))
        for system in (ps.ambiguous_system(basis, simples), ps.specification(basis, simples)):
            assert not any(provably_empty(r) for r in system.equations)
            assert len(system) <= bound


def test_add_constraints_semantics_small():
    check_add_constraints_semantics(nmax=6, gmax=3)


@pytest.fixture(scope="module")
def dead_parts_spec():
    """A class whose specification has 2 empty equations and 14 empty terms."""
    basis = ps.basis_of([P(x) for x in ("2413", "3142", "21543", "12453")])
    return ps.specification(basis, ps.simple_set([]))


def test_empty_restrictions_match_zero_counts(
    av132_spec, sep_subclass_spec, big_spec, five_root_spec, dead_parts_spec
):
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    for system in (av132_spec, sep_subclass_spec, big_spec, five_root_spec, separable,
                   dead_parts_spec):
        counts = ps.coefficients(system, 30)
        zero = {r for r, series in counts.items() if not any(series)}
        assert empty_restrictions(system) == zero
    empty = empty_restrictions(dead_parts_spec)
    terms = [t for eq in dead_parts_spec.equations.values() for t in eq.terms]
    assert len(empty) == 2 and sum(bool(empty & set(t.children)) for t in terms) == 14
    assert not empty_restrictions(big_spec)


def test_empty_restrictions_have_no_members(dead_parts_spec):
    # the restriction algebra cannot see these are empty, or pruning would
    # have kept them off every right-hand side; the oracle finds no member
    closure = ps.closure_members(dead_parts_spec.simples, 7)
    for r in empty_restrictions(dead_parts_spec):
        assert not ps.is_empty_sufficient(r)
        for n in range(1, 8):
            assert not any(
                ps.member_of_restriction(p, r, dead_parts_spec.simples) for p in closure[n]
            ), (r, n)


def test_empty_restrictions_is_a_least_fixpoint():
    # a restriction whose only term refers back to itself has no members,
    # and neither has one that needs it
    leaf_plus, leaf_minus = R("+", ("21",)), R("-", ("12",))
    loop, dead = R(avoid=("21",)), R(avoid=("132",))
    rhs = {
        dead: (RestrictionTerm(ps.MINUS, (leaf_minus, loop)),),
        loop: (RestrictionTerm(ps.PLUS, (leaf_plus, loop)),),
        leaf_plus: (),
        leaf_minus: (),
    }
    system = ps.EquationSystem((), dead)
    for lhs, terms in rhs.items():
        system.equations[lhs] = ps.Equation(lhs, not terms, terms, disjoint=True)
    assert empty_restrictions(system) == {dead, loop}
