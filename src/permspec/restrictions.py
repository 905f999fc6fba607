"""The algebra of restrictions: closure subsets cut out by forbidden and
mandatory patterns.

A restriction denotes the permutations of the substitution closure (or of its
plus-/minus-indecomposable part) that avoid every pattern of one finite set
and contain every pattern of another.  Restriction terms are inflations of a
root by restrictions.  This module provides canonical forms, the sufficient
emptiness/inclusion tests, intersections, and disjoint complements; it never
needs to know the closure's simple permutations, which only enter through the
membership oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError
from .perms import EMPTY, MINUS, ONE, PLUS, Permutation, contains, is_simple, sort_key

DELTAS = ("", "+", "-")
_DELTA_RANK = {"": 0, "+": 1, "-": 2}


def _sorted_patterns(patterns) -> tuple[Permutation, ...]:
    return tuple(sorted(set(patterns), key=sort_key))


@dataclass(frozen=True)
class Restriction:
    """Permutations of the closure part `delta` avoiding all of `avoid` and
    containing all of `contain`.  Never contains the empty permutation."""

    delta: str
    avoid: tuple[Permutation, ...]
    contain: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if self.delta not in DELTAS:
            raise InvalidInputError(f"bad delta {self.delta!r}")
        for p in self.avoid + self.contain:
            if len(p) == 0:
                raise InvalidInputError("the empty permutation may not constrain a restriction")

    def __str__(self) -> str:
        av = ",".join(p.compact() for p in self.avoid)
        co = ",".join(p.compact() for p in self.contain)
        out = f"C{self.delta}<{av}>"
        return out + (f"({co})" if co else "")

    def __repr__(self) -> str:
        return str(self)

    def sort_token(self):
        return (
            _DELTA_RANK[self.delta],
            tuple(sort_key(p) for p in self.avoid),
            tuple(sort_key(p) for p in self.contain),
        )


def _delta_bars(delta: str, root: Permutation | None) -> bool:
    """Whether a restriction with this delta excludes members with this root."""
    return (delta == "+" and root == PLUS) or (delta == "-" and root == MINUS)


def restriction(delta: str, avoid=(), contain=()) -> Restriction:
    """The canonical restriction avoiding `avoid` and containing `contain`.

    Each side is deduplicated and sorted once, then reduced without changing
    the denoted set.  Avoiding a pattern makes avoiding anything above it
    redundant, so only minimal avoided patterns are kept; dually only maximal
    contained patterns are kept.  Containing 1 says nothing, so 1 is dropped
    from the contain side; an avoided 1 stays (it marks the empty set).
    """
    contain = _sorted_patterns(contain)
    # checked before the reduction, which would drop it below any other pattern
    if EMPTY in contain:
        raise InvalidInputError("the empty permutation may not constrain a restriction")
    return Restriction(
        delta,
        _minima(_sorted_patterns(avoid)),
        _maxima(tuple(p for p in contain if p != ONE)),
    )


def _minima(patterns: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    return tuple(
        p for p in patterns if not any(q != p and contains(p, q) for q in patterns)
    )


def _maxima(patterns: tuple[Permutation, ...]) -> tuple[Permutation, ...]:
    return tuple(
        p for p in patterns if not any(q != p and contains(q, p) for q in patterns)
    )


def is_empty_sufficient(r: Restriction) -> bool:
    """True guarantees the restriction denotes the empty set: some avoided
    pattern sits below some mandatory one.  False proves nothing."""
    return any(contains(a, e) for e in r.avoid for a in r.contain)


def provably_empty(r: Restriction) -> bool:
    """Emptiness by convention (1 avoided) or by the sufficient test."""
    return ONE in r.avoid or is_empty_sufficient(r)


def subset_sufficient(r1: Restriction, r2: Restriction) -> bool:
    """True guarantees r1 denotes a subset of r2.  False proves nothing.

    Every pattern avoided by r2 must dominate one avoided by r1, and every
    pattern demanded by r2 must sit below one demanded by r1.
    """
    if r1.delta != r2.delta:
        raise InvalidInputError("subset test requires matching deltas")
    return all(any(contains(p, t) for t in r1.avoid) for p in r2.avoid) and all(
        any(contains(t, p) for t in r1.contain) for p in r2.contain
    )


@lru_cache(maxsize=1 << 16)
def intersect_restrictions(r1: Restriction, r2: Restriction) -> Restriction:
    if r1.delta != r2.delta:
        raise InvalidInputError("intersection requires matching deltas")
    return restriction(r1.delta, r1.avoid + r2.avoid, r1.contain + r2.contain)


def complement_restriction(r: Restriction) -> tuple[Restriction, ...]:
    """Disjoint restrictions covering the rest of the closure part.

    One per way of flipping a non-empty subset of r's constraints to the
    other side: flipped avoided patterns become mandatory and vice versa.
    With k avoided and l mandatory patterns that is 2^(k+l) - 1 restrictions,
    pairwise disjoint, whose union is the complement of r.
    """
    tagged = [(p, "avoid") for p in r.avoid] + [(p, "contain") for p in r.contain]
    out = []
    for size in range(1, len(tagged) + 1):
        for flips in itertools.combinations(range(len(tagged)), size):
            avoid, contain = [], []
            for idx, (p, side) in enumerate(tagged):
                if (side == "avoid") != (idx in flips):
                    avoid.append(p)
                else:
                    contain.append(p)
            out.append(restriction(r.delta, avoid, contain))
    return tuple(out)


@dataclass(frozen=True)
class RestrictionTerm:
    """Inflation of a root (12, 21, or a simple permutation) by restrictions.

    The first child of a 12 root is plus-indecomposable and of a 21 root
    minus-indecomposable, so terms with distinct roots denote disjoint sets.
    """

    root: Permutation
    children: tuple[Restriction, ...]

    def __post_init__(self) -> None:
        if len(self.children) != len(self.root):
            raise InvalidInputError("child count must match root size")
        if self.root == PLUS:
            expected = ("+", "")
        elif self.root == MINUS:
            expected = ("-", "")
        elif is_simple(self.root):
            expected = ("",) * len(self.root)
        else:
            raise InvalidInputError(f"term root must be 12, 21 or simple, got {self.root}")
        deltas = tuple(c.delta for c in self.children)
        if deltas != expected:
            raise InvalidInputError(f"child deltas {deltas} do not fit root {self.root}")

    def __str__(self) -> str:
        name = {PLUS: "plus", MINUS: "minus"}.get(self.root, self.root.compact())
        return f"{name}[{', '.join(str(c) for c in self.children)}]"

    def __repr__(self) -> str:
        return str(self)

    def sort_token(self):
        return (root_rank(self.root), tuple(c.sort_token() for c in self.children))


def root_rank(root: Permutation):
    """Display and grouping order for term roots: 12, then 21, then simples."""
    if root == PLUS:
        return (0, ())
    if root == MINUS:
        return (1, ())
    return (2, sort_key(root))


def term_provably_empty(t: RestrictionTerm) -> bool:
    """A term is empty iff some child is; this checks the provable direction."""
    return any(provably_empty(c) for c in t.children)


@lru_cache(maxsize=1 << 16)
def _meet_provably_empty(r1: Restriction, r2: Restriction) -> bool:
    return provably_empty(intersect_restrictions(r1, r2))


def terms_meet_provably_empty(t1: RestrictionTerm, t2: RestrictionTerm) -> bool:
    """True guarantees the same-root terms t1 and t2 are disjoint: their
    componentwise meet has a provably empty child.  Decided per child pair,
    without building the meet."""
    return any(map(_meet_provably_empty, t1.children, t2.children))


def term_subset_sufficient(t1: RestrictionTerm, t2: RestrictionTerm) -> bool:
    """True guarantees t1 denotes a subset of t2 (same root, componentwise)."""
    return t1.root == t2.root and all(
        subset_sufficient(c1, c2) for c1, c2 in zip(t1.children, t2.children)
    )


def intersect_terms(t1: RestrictionTerm, t2: RestrictionTerm) -> RestrictionTerm | None:
    """Componentwise intersection; None when the roots differ (disjoint sets)."""
    if t1.root != t2.root:
        return None
    return RestrictionTerm(
        t1.root,
        tuple(intersect_restrictions(c1, c2) for c1, c2 in zip(t1.children, t2.children)),
    )


def complement_term(t: RestrictionTerm) -> tuple[RestrictionTerm, ...]:
    """Disjoint terms covering the rest of the same-root inflations.

    Every child independently either keeps its restriction or takes one part
    of that restriction's disjoint complement, excluding the all-keep choice.
    """
    options = [(child,) + complement_restriction(child) for child in t.children]
    out = []
    for picks in itertools.product(*(range(len(o)) for o in options)):
        if all(p == 0 for p in picks):
            continue
        out.append(RestrictionTerm(t.root, tuple(options[i][p] for i, p in enumerate(picks))))
    return tuple(out)


@dataclass(frozen=True)
class Equation:
    """One equation of a system: lhs = [atom 1] union of restriction terms.

    `disjoint` records that the right-hand side has been rewritten as a union
    of pairwise disjoint parts.
    """

    lhs: Restriction
    has_one: bool
    terms: tuple[RestrictionTerm, ...]
    disjoint: bool

    def __str__(self) -> str:
        sep = " + " if self.disjoint else " | "
        parts = (["1"] if self.has_one else []) + [str(t) for t in self.terms]
        return f"{self.lhs} = {sep.join(parts) if parts else 'EMPTY'}"

    def rhs_restrictions(self) -> tuple[Restriction, ...]:
        return tuple(dict.fromkeys(c for t in self.terms for c in t.children))
