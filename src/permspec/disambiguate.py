"""Equations for restrictions, disambiguation, and the construction driver.

An equation for a restriction starts from the closure equation and pushes
every forbidden pattern, then every mandatory one, into the children of its
terms.  The resulting terms may overlap, but only when they share a root,
and each such group is rewritten as the disjoint union, over every non-empty
subset of the group, of the intersection of the chosen terms with the
complements of the others.  Complements introduce mandatory patterns, which
propagate through inflations just like forbidden ones, by embeddings.  Each
distinct group is expanded once and its parts are memoized, since the `""`,
`"+"` and `"-"` equations of one restriction share their 12- and 21-rooted
groups.  No complement is built in full: each slice grows by one meet step,
which keeps per child only the options whose meet with that child is not
provably empty and takes the product of what it kept, since nearly every
part of a complement is disjoint from the slice.

One worklist driver builds both systems: it adds an equation for every
restriction that appears on a right-hand side until the system is closed,
finishing each equation as it is produced.  The ambiguous system keeps the
equations as built; the specification disambiguates each one.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable

from .embeddings import all_embeddings
from .errors import InvalidInputError
from .perms import Permutation, contains
from .restrictions import (
    Equation,
    RestrictionTerm,
    _meet,
    complement_restriction,
    provably_empty,
    restriction,
    root_rank,
)
from .system import (
    Basis,
    EquationSystem,
    SimpleSet,
    _check_block_invariant,
    add_constraints,
    closure_equation,
    distinct_roots,
    propagated_blocks,
    prune_terms,
)


def add_mandatory(t: RestrictionTerm, g: Permutation) -> tuple[RestrictionTerm, ...]:
    """Rewrite t constrained to contain g as a union of restriction terms.

    An inflation contains g exactly when some embedding of g into the root is
    realized, so each embedding contributes one term whose children must
    contain their assigned blocks.  Blocks of size 0 or 1 impose nothing.
    """
    if len(g) <= 1:
        raise InvalidInputError("mandatory pattern must have size at least 2")
    out = []
    for emb in all_embeddings(g, t.root):
        children = list(t.children)
        for k, block in enumerate(emb):
            if len(block) >= 2:
                c = children[k]
                children[k] = restriction(c.delta, c.avoid, c.contain + (block,))
        out.append(RestrictionTerm(t.root, tuple(children)))
    return prune_terms(tuple(out))


def eqn_for_restriction(delta: str, avoid, contain, simples: SimpleSet) -> Equation:
    """A (possibly ambiguous) equation for one restriction.

    Three steps: the closure decomposition for delta, then every forbidden
    pattern pushed into the children, then every mandatory one.  The size-1
    atom survives only when nothing is mandatory.
    """
    lhs = restriction(delta, avoid, contain)
    if provably_empty(lhs):
        return Equation(lhs, False, (), disjoint=True)
    terms = closure_equation(delta, simples).terms
    for g in lhs.avoid:
        terms = prune_terms(tuple(u for t in terms for u in add_constraints(t, g)))
    for g in lhs.contain:
        terms = prune_terms(tuple(u for t in terms for u in add_mandatory(t, g)))
    return Equation(lhs, not lhs.contain, terms, disjoint=distinct_roots(terms))


def disambiguate(eq: Equation) -> Equation:
    """Rewrite the right-hand side as a disjoint union.

    Terms with distinct roots are disjoint already, and so is the atom, so
    each same-root group is expanded on its own.  Within a group t_1..t_k
    the union is replaced by the disjoint union over non-empty subsets X of
    the intersections of t_i for i in X with complements of the others
    (for k = 1 that is t_1 itself); complements distribute into disjoint
    unions of terms and all intersections are componentwise.  Each slice
    starts from the free term and meets the chosen terms, then the
    complements of the others in ascending order, one meet step each, so
    the chosen terms prune the complements' products before they are
    expanded.  Provably empty parts are never built, and literal duplicates
    (necessarily empty, since the parts are disjoint) are kept once.
    """
    groups: dict[Permutation, list[RestrictionTerm]] = {}
    for t in eq.terms:
        groups.setdefault(t.root, []).append(t)
    out: list[RestrictionTerm] = []
    for root in sorted(groups, key=root_rank):
        out.extend(_disambiguate_group(tuple(groups[root])))
    return Equation(eq.lhs, eq.has_one, tuple(out), disjoint=True)


@lru_cache(maxsize=1 << 10)
def _disambiguate_group(group: tuple[RestrictionTerm, ...]) -> tuple[RestrictionTerm, ...]:
    k = len(group)
    options = [[(c,) + complement_restriction(c) for c in t.children] for t in group]
    free = RestrictionTerm(group[0].root, tuple(restriction(c.delta) for c in group[0].children))
    out: dict[RestrictionTerm, None] = {}
    for size in range(1, k + 1):
        for chosen in itertools.combinations(range(k), size):
            # the chosen terms first, so they prune the complements' products
            steps = [([(c,) for c in group[i].children], False) for i in chosen]
            steps += [(options[j], True) for j in range(k) if j not in chosen]
            slice_terms = [free]
            for opts, flip in steps:
                slice_terms = list(
                    dict.fromkeys(u for s in slice_terms for u in _meet(s, opts, flip))
                )
            out.update(dict.fromkeys(slice_terms))
    return tuple(out)


def ambiguous_system(basis: Basis, simples: SimpleSet) -> EquationSystem:
    """The possibly ambiguous equation system describing Av(basis).

    Starts with the equation for the class (the closure restricted by the
    non-simple basis elements) and adds an equation for every restriction
    appearing on a right side only, until the system is complete.
    """
    return _build_system(basis, simples, lambda eq: eq)


def specification(basis: Basis, simples: SimpleSet) -> EquationSystem:
    """A combinatorial specification (disjoint equation system) for Av(basis).

    Same driver as the ambiguous system, with every equation disambiguated as
    it is produced; complements introduce restrictions with mandatory
    patterns, which receive their own equations in turn.
    """
    return _build_system(basis, simples, disambiguate)


def _build_system(
    basis: Basis,
    simples: SimpleSet,
    finish: Callable[[Equation], Equation],
) -> EquationSystem:
    """The worklist: build, finish and record the equation of each restriction
    in the order it first appears, starting from the class itself.

    It terminates: every constraint is one of the blocks B of the non-simple
    basis elements (checked per equation), and pruning keeps provably empty
    restrictions off right-hand sides, so 1 is never a constraint.  Every
    restriction is thus a delta and, per block other than 1, avoided,
    required or free: at most 3^|B| of them, or 3 when B is empty.

    A simple permutation that contains a basis pattern is refused: it is not
    in the class, and its closure term would count non-members.
    """
    for s in simples.simples:
        for p in basis.patterns:
            if contains(s, p):
                raise InvalidInputError(
                    f"simple permutation {s.compact()} contains the basis pattern "
                    f"{p.compact()}, so it is not in the class"
                )
    blocks = propagated_blocks(basis)
    root = restriction("", basis.b_star)
    system = EquationSystem(simples.simples, root)
    queue = [root]
    seen = {root}
    while queue:
        lhs = queue.pop(0)
        eq = finish(eqn_for_restriction(lhs.delta, lhs.avoid, lhs.contain, simples))
        _check_block_invariant(eq, blocks)
        system.equations[lhs] = eq
        for r in eq.rhs_restrictions():
            if r not in seen:
                seen.add(r)
                queue.append(r)
    return system
