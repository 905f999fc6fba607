"""The algebra of restrictions: closure subsets cut out by forbidden and
mandatory patterns.

A restriction denotes the permutations of the substitution closure (or of its
plus-/minus-indecomposable part) that avoid every pattern of one finite set
and contain every pattern of another.  Restriction terms are inflations of a
root by restrictions.  This module provides canonical forms, the sufficient
emptiness/inclusion tests, intersections, and disjoint complements; it never
needs to know the closure's simple permutations, which only enter through the
membership oracle.

Every pattern that constrains a restriction is interned once, in a table
private to this module: it gets a bit, and the table keeps, per pattern, the
mask of the interned patterns it contains, itself included.  The table is
append-only and closed downwards: a pattern is interned together with every
pattern it contains that the table lacks, smallest first, so each entry's mask
is its own bit and the masks of its one-point deletions, and it is final when
it is written.  No entry is ever written again, and the table grows under a
lock that publishes each id after its entry, so concurrent threads may build
restrictions freely.  A restriction derives its masks when it is built: what
it avoids, what it demands, and what its mandatory patterns imply, which no
later pattern can join (they are not fields: equality, hash and repr ignore
them, and unpickling rebuilds the restriction, so the masks are derived again
in the receiving process).  The canonical minima and maxima, emptiness, meets
and inclusion are then integer operations, and `restriction` builds the
canonical form of a pair of pattern sets once, keyed by their masks.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import InvalidInputError
from .perms import MINUS, ONE, PLUS, Permutation, _deletions, is_simple, sort_key

DELTAS = ("", "+", "-")
_DELTA_RANK = {"": 0, "+": 1, "-": 2}

_lock = threading.Lock()
_ids: dict[Permutation, int] = {}
_patterns: list[Permutation] = []
# per interned pattern, the mask of the interned patterns it contains, itself
# included; every one of them is interned first, so the mask is final
_below: list[int] = []


def _intern(p: Permutation) -> int:
    if len(p) == 0:
        raise InvalidInputError("the empty permutation may not constrain a restriction")
    with _lock:
        i = _ids.get(p)
        if i is not None:
            return i
        # p and each pattern below it that the table lacks, one size at a time
        new, level = {}, {p}
        while level:
            new.update((q, _deletions(q)) for q in level)
            level = {d for q in level for d in new[q] if d not in _ids}
        # smallest first, so p, the largest, comes last
        for q in sorted(new, key=sort_key):
            i = len(_below)
            below = 1 << i
            for d in new[q]:
                below |= _below[_ids[d]]
            _patterns.append(q)
            _below.append(below)
            # published last: an id is only seen with its entry written
            _ids[q] = i
        return i


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(patterns) -> int:
    m = 0
    for p in patterns:
        i = _ids.get(p)
        m |= 1 << (_intern(p) if i is None else i)
    return m


def _below_others(mask: int) -> int:
    """The interned patterns below some pattern of the mask other than
    themselves."""
    out = 0
    while mask:
        low = mask & -mask
        out |= _below[low.bit_length() - 1] ^ low
        mask ^= low
    return out


_ONE_BIT = _mask((ONE,))


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
        avoid, contain = _mask(self.avoid), _mask(self.contain)
        object.__setattr__(self, "_avoid_mask", avoid)
        object.__setattr__(self, "_contain_mask", contain)
        # the interned patterns some mandatory pattern contains
        object.__setattr__(self, "_implied", contain | _below_others(contain))

    def __reduce__(self):
        # the masks are bits of this process's table: rebuild, never copy them
        return (Restriction, (self.delta, self.avoid, self.contain))

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

    Each side is read as a set of interned patterns, reduced without
    changing the denoted set, and sorted; equal sets share one canonical
    restriction.  Avoiding a pattern makes avoiding anything above it
    redundant, so only minimal avoided patterns are kept; dually only maximal
    contained patterns are kept.  Containing 1 says nothing, so 1 is dropped
    from the contain side; an avoided 1 stays (it marks the empty set).
    """
    return _canonical(delta, _mask(avoid), _mask(contain) & ~_ONE_BIT)


@lru_cache(maxsize=1 << 16)
def _canonical(delta: str, avoid: int, contain: int) -> Restriction:
    """The restriction of the minimal patterns of one mask and the maximal
    ones of another; masks name pattern sets for good, so it never goes
    stale."""
    minimal = [i for i in _bits(avoid) if _below[i] & avoid == 1 << i]
    maximal = _bits(contain & ~_below_others(contain))
    return Restriction(delta, _ordered(minimal), _ordered(maximal))


def _ordered(ids) -> tuple[Permutation, ...]:
    """The interned patterns of these ids, in canonical order."""
    return tuple(sorted((_patterns[i] for i in ids), key=sort_key))


def is_empty_sufficient(r: Restriction) -> bool:
    """True guarantees the restriction denotes the empty set: some avoided
    pattern sits below some mandatory one.  False proves nothing."""
    return r._avoid_mask & r._implied != 0


def provably_empty(r: Restriction) -> bool:
    """Emptiness by convention (1 avoided) or by the sufficient test."""
    return r._avoid_mask & (_ONE_BIT | r._implied) != 0


def subset_sufficient(r1: Restriction, r2: Restriction) -> bool:
    """True guarantees r1 denotes a subset of r2.  False proves nothing.

    Every pattern avoided by r2 must dominate one avoided by r1, and every
    pattern demanded by r2 must sit below one demanded by r1.
    """
    if r1.delta != r2.delta:
        raise InvalidInputError("subset test requires matching deltas")
    if r2._contain_mask & ~r1._implied:
        return False
    avoided = r1._avoid_mask
    for p in r2.avoid:
        if not _below[_ids[p]] & avoided:
            return False
    return True


def intersect_restrictions(r1: Restriction, r2: Restriction) -> Restriction:
    if r1.delta != r2.delta:
        raise InvalidInputError("intersection requires matching deltas")
    return _canonical(
        r1.delta,
        r1._avoid_mask | r2._avoid_mask,
        (r1._contain_mask | r2._contain_mask) & ~_ONE_BIT,
    )


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


def meet_provably_empty(c1: Restriction, c2: Restriction) -> bool:
    """True guarantees the restrictions c1 and c2 are disjoint, decided
    without building their meet: one of their avoided patterns is 1 or lies
    below one of their mandatory patterns."""
    return (c1._avoid_mask | c2._avoid_mask) & (_ONE_BIT | c1._implied | c2._implied) != 0


def terms_meet_provably_empty(t1: RestrictionTerm, t2: RestrictionTerm) -> bool:
    """True guarantees the same-root terms t1 and t2 are disjoint: their
    componentwise meet has a provably empty child."""
    return any(map(meet_provably_empty, t1.children, t2.children))


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
    of that restriction's disjoint complement, excluding the all-keep choice;
    provably empty parts are left out.
    """
    free = RestrictionTerm(t.root, tuple(restriction(c.delta) for c in t.children))
    return tuple(_meet(free, [(c,) + complement_restriction(c) for c in t.children], True))


def _meet(
    s: RestrictionTerm, options: list[tuple[Restriction, ...]], flip: bool
) -> Iterator[RestrictionTerm]:
    """The meets of s with every term that takes one option per child, in
    product order, leaving out each pick whose meet is provably empty.  With
    `flip`, the pick of every child's first option is left out too: the
    options being a term's children and their complements, the terms met
    are then that term's complement.

    Emptiness is decided per child, before anything is built, so the product
    only runs over the options each child of s can meet.
    """
    kept = [
        [(i, intersect_restrictions(c, o)) for i, o in enumerate(opts)
         if not meet_provably_empty(c, o)]
        for c, opts in zip(s.children, options)
    ]
    for picks in itertools.product(*kept):
        if flip and not any(i for i, _ in picks):
            continue
        yield RestrictionTerm(s.root, tuple(c for _, c in picks))


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
