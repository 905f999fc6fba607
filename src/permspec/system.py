"""The building blocks of equation systems for a class given by its basis and
simple permutations.

This module holds the inputs (Basis, SimpleSet), the system container, the
closure equations, the rewrite that pushes a forbidden pattern into the
children of an inflation term (add_constraints), and the pruning of a union
of terms (prune_terms).  The worklist that assembles whole systems,
ambiguous or disambiguated, lives in the disambiguate module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .embeddings import all_embeddings
from .errors import InvalidInputError, NotAntichainError, TrivialClassError
from .perms import (
    MINUS,
    ONE,
    PLUS,
    Permutation,
    _allowed_simples,
    contains,
    is_simple,
    normalized_blocks,
    sort_key,
)
from .restrictions import (
    Equation,
    Restriction,
    RestrictionTerm,
    restriction,
    term_provably_empty,
    term_subset_sufficient,
)


@dataclass(frozen=True)
class Basis:
    """A finite antichain of forbidden patterns defining a class."""

    patterns: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise TrivialClassError("empty basis: the class of all permutations is unsupported")
        for p in self.patterns:
            if len(p) == 0:
                raise TrivialClassError("basis contains the empty permutation; the class is empty")
            if p == ONE:
                raise TrivialClassError("basis contains 1; the class is empty")
        for p in self.patterns:
            for q in self.patterns:
                if p != q and contains(q, p):
                    raise NotAntichainError(f"{p} is a pattern of {q}")

    @property
    def b_star(self) -> tuple[Permutation, ...]:
        """The non-simple basis elements; only these need propagation."""
        return tuple(p for p in self.patterns if not is_simple(p))


def basis_of(patterns) -> Basis:
    return Basis(tuple(sorted(set(patterns), key=sort_key)))


@dataclass(frozen=True)
class SimpleSet:
    """The simple permutations of the class; the closure's prime node labels.

    The set of a genuine class is closed under taking simple patterns (a
    simple pattern of a member is in the class, hence in the set), so a set
    violating that cannot come from any class and is rejected, by the same
    check that `in_closure` and the oracle make.
    """

    simples: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        _allowed_simples(tuple(self.simples))


def simple_set(simples) -> SimpleSet:
    return SimpleSet(tuple(sorted(set(simples), key=sort_key)))


@dataclass
class EquationSystem:
    """An ordered map from restrictions to their equations.

    The first equation's left-hand side is the class itself.  Complete by
    construction: every restriction used on a right-hand side is a key.
    """

    simples: tuple[Permutation, ...]
    root: Restriction
    equations: dict[Restriction, Equation] = field(default_factory=dict)

    @property
    def all_disjoint(self) -> bool:
        return all(eq.disjoint for eq in self.equations.values())

    def __len__(self) -> int:
        return len(self.equations)

    def __str__(self) -> str:
        return "\n".join(str(eq) for eq in self.equations.values())


def empty_restrictions(system: EquationSystem) -> set[Restriction]:
    """The left-hand sides of the system that have no members at any size.

    The least fixpoint of productivity: a restriction is non-empty when it
    has the atom, or a term whose children are all non-empty.  Every term
    root has size at least 2, so each child is strictly smaller than its
    parent and a productive restriction really has members (Pivoteau, Salvy
    & Soria, JCTA 2012).  A term is empty exactly when one of its children
    is.
    """
    nonempty: set[Restriction] = set()
    pending = dict(system.equations)
    grew = True
    while grew:
        grew = False
        for lhs, eq in list(pending.items()):
            if eq.has_one or any(all(c in nonempty for c in t.children) for t in eq.terms):
                nonempty.add(lhs)
                del pending[lhs]
                grew = True
    return set(pending)


def closure_equation(delta: str, simples: SimpleSet) -> Equation:
    """The decomposition-by-root equation for one part of the closure.

    The plain part splits into the atom, a 12-rooted and a 21-rooted term and
    one term per simple permutation; the plus part omits the 12-rooted term
    and the minus part the 21-rooted one.
    """
    unrestricted = restriction("")
    terms = []
    if delta in ("", "-"):
        terms.append(RestrictionTerm(PLUS, (restriction("+"), unrestricted)))
    if delta in ("", "+"):
        terms.append(RestrictionTerm(MINUS, (restriction("-"), unrestricted)))
    for s in simples.simples:
        terms.append(RestrictionTerm(s, (unrestricted,) * len(s)))
    return Equation(restriction(delta), True, tuple(terms), disjoint=True)


def add_constraints(t: RestrictionTerm, g: Permutation) -> tuple[RestrictionTerm, ...]:
    """Rewrite t constrained to avoid g as a union of restriction terms.

    An inflation avoids g exactly when every embedding of g into the root is
    blocked by some child avoiding its assigned block.  Each way of choosing
    one blocking child per embedding contributes a term whose children carry
    the corresponding blocks as new forbidden patterns.  Choices are explored
    one embedding at a time, pruning the terms after each, which never
    changes the union.
    """
    if len(g) <= 1:
        raise InvalidInputError("avoided pattern must have size at least 2")
    # the children that can block an embedding are those whose block has
    # size at least 2: an empty block constrains nothing, and a single point
    # cannot be avoided by a non-empty child
    per_embedding = [
        (emb, [k for k, block in enumerate(emb) if len(block) >= 2])
        for emb in all_embeddings(g, t.root)
    ]
    if any(not cands for _, cands in per_embedding):
        return ()
    # stable, so ties keep all_embeddings' canonical order
    per_embedding.sort(key=lambda ec: len(ec[1]))
    terms = (t,)
    for emb, cands in per_embedding:
        nxt: dict[RestrictionTerm, None] = {}
        for u in terms:
            for k in cands:
                children = list(u.children)
                c = children[k]
                children[k] = restriction(c.delta, c.avoid + (emb[k],), c.contain)
                nxt.setdefault(RestrictionTerm(t.root, tuple(children)))
        terms = prune_terms(tuple(nxt))
    return terms


def prune_terms(terms: tuple[RestrictionTerm, ...]) -> tuple[RestrictionTerm, ...]:
    """Drop provably empty terms and terms provably included in another.

    Sound for ambiguous unions: removing a subset of another member never
    changes the union.
    """
    live = [t for t in terms if not term_provably_empty(t)]
    live.sort(key=RestrictionTerm.sort_token)
    kept: list[RestrictionTerm] = []
    for t in live:
        if any(term_subset_sufficient(t, u) for u in kept):
            continue
        kept = [u for u in kept if not term_subset_sufficient(u, t)]
        kept.append(t)
    return tuple(kept)


def distinct_roots(terms) -> bool:
    """Terms with pairwise distinct roots are disjoint by the uniqueness of
    the decomposition, no matter how they were built."""
    return len({t.root for t in terms}) == len(terms)


def propagated_blocks(basis: Basis) -> set[Permutation]:
    """Normalized blocks of the non-simple basis elements: the universe all
    avoid/contain constraints in any system for this basis live in."""
    blocks: set[Permutation] = set()
    for p in basis.b_star:
        blocks |= normalized_blocks(p)
    return blocks


def _check_block_invariant(eq: Equation, blocks: set[Permutation]) -> None:
    for r in (eq.lhs,) + eq.rhs_restrictions():
        for p in r.avoid + r.contain:
            if p not in blocks:
                raise AssertionError(f"constraint {p} is not a block of any basis element")
