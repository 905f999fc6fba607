"""Brute-force ground truth used to verify every other stage on small sizes.

Class members are enumerated incrementally: inserting the new maximum into a
member of size n-1 in every possible way produces each size-n permutation
exactly once (the generating tree of West, *Generating trees and the Catalan
and Schröder numbers*, 1995), and a class is closed under removing the
maximum, so filtering the candidates is exhaustive.  The filter works at the
insertion site: a member avoiding a pattern beta has a child containing beta
only through an occurrence in which the new maximum plays beta's maximum,
so each member's blocked slots form a bit mask that its children inherit and
extend (`_child_masks`).  One walk (`_grow`) applies this rule to the class
and to the closure members avoiding each pattern an audit meets.

Closure members are built, not filtered: each is exactly once an inflation
plus[a, b], minus[a, b] or s[k_1, ..., k_k] of smaller members (Albert &
Atkinson 2005), so it comes with its decomposition and nothing is decomposed.
Each level is then sorted back into the generating-tree order, which every
enumeration here documents and the tests pin.  The audit reads restriction
and term members from that table, by size and root; a restriction's members
are intersections and differences of avoider sets, and the audit runs no
containment search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, compress, pairwise, product
from typing import Callable, Iterable, Sequence

from .errors import InvalidInputError
from .perms import (
    MINUS,
    ONE,
    PLUS,
    Permutation,
    _closure_tree,
    _occurrence_search,
    contains,
    is_simple,
    sort_key,
)
from .restrictions import Restriction, _bits, _delta_bars
from .system import EquationSystem, simple_set


def enumerate_class(patterns: Sequence[Permutation], n: int) -> list[Permutation]:
    """All size-n permutations avoiding every basis pattern."""
    return class_members(patterns, n)[n]


def class_members(patterns: Sequence[Permutation], nmax: int) -> dict[int, list[Permutation]]:
    """Members of the class for every size up to nmax, grown by the
    blocked-slot rule (`_child_masks`) with every slot open (`_grow`)."""
    if nmax < 0:
        raise InvalidInputError(f"size must be non-negative, got {nmax}")
    return _grow(patterns, nmax, lambda pv: (2 << len(pv)) - 1)


def _grow(
    patterns: Sequence[Permutation], nmax: int, slots: Callable[[tuple[int, ...]], int]
) -> dict[int, list[Permutation]]:
    """The permutations up to size nmax that avoid every pattern and are
    reached from the empty one by inserting each next maximum n at a slot
    that slots(pv), a bit mask, opens in the parent pv (slot s puts n before
    pv's entry at 0-based position s) and that no pattern blocks there
    (`_child_masks`).  The walk is depth first on an explicit stack, each
    parent appending all its children to their level before any of them is
    expanded, so every level is in generating-tree order (parent by parent,
    slot by slot), and only the masks of pending siblings are held.  A
    pattern of size 0 or 1 occurs in every nonempty permutation, so it
    leaves every level empty.
    """
    out: dict[int, list[Permutation]] = {n: [] for n in range(nmax + 1)}
    if nmax == 0 or any(len(b) <= 1 for b in patterns):
        return out
    cuts = [_insertion_cut(b) for b in patterns]
    # the empty permutation, not itself a member, blocks no slot
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        pv, mask = stack.pop()
        n = len(pv) + 1
        free = list(_bits(slots(pv) & ~mask))
        # inserting n into a permutation of 1..n-1 gives one of 1..n
        kids = [tuple.__new__(Permutation, pv[:t] + (n,) + pv[t:]) for t in free]
        out[n] += kids
        if n < nmax:
            stack += reversed(list(zip(kids, _child_masks(pv, mask, free, cuts))))
    return out


def _insertion_cut(beta: Permutation) -> tuple[tuple[int, ...], int, int]:
    """rest2, beta with its two largest values deleted, the index m2 that
    beta's second largest value has once its maximum is deleted, and the
    index m of beta's maximum."""
    m = beta.index(len(beta))
    rest = beta[:m] + beta[m + 1 :]
    m2 = rest.index(len(rest))
    return rest[:m2] + rest[m2 + 1 :], m2, m


def _child_masks(
    pv: tuple[int, ...],
    mask: int,
    free: list[int],
    cuts: Sequence[tuple[tuple[int, ...], int, int]],
) -> list[int]:
    """The masks of the children of the member pv with this mask, one per
    free slot t, each the child with n = len(pv) + 1 at slot t.

    A member's mask has bit s set when inserting the next maximum at slot s
    would complete a pattern beta.  That maximum would play beta's maximum,
    at index m, and the rest of the occurrence would be an occurrence occ of
    rest (beta without its maximum) in the member that slot s splits after
    its first m entries: occ blocks the slots occ[m-1]+1 .. occ[m], the ends
    read as 0 and the member's size.  In the child, an occurrence of rest
    that misses n is one of pv's, shifted past t; since t was free, none
    covers slot t or t+1, so the child inherits pv's mask with the bits from
    t up shifted by one.  One that uses n has n at rest's maximum, index m2,
    and the rest of it is an occurrence of rest2 (rest without its maximum)
    in pv that t splits after its first m2 entries, so the blocked range
    follows from that occurrence and t alone.  Each parent thus searches
    for rest2, two entries shorter than beta, and the last level searches
    for nothing.
    """
    size = len(pv)
    masks = [mask + (mask >> t << t) for t in free]
    for rest2, m2, m in cuts:
        last = len(rest2)
        for occ in _occurrence_search(pv, rest2, True):
            # the free slots that split occ after its first m2 entries
            j = bisect_left(free, occ[m2 - 1] + 1) if m2 else 0
            k = bisect_right(free, occ[m2]) if m2 < last else len(free)
            if m2 == m:
                # n ends the range, which starts where that split does
                base = 1 << (occ[m2 - 1] + 1) if m2 else 1
                for i in range(j, k):
                    masks[i] |= (2 << free[i]) - base
                continue
            if m2 == m - 1:
                # n starts the range, which ends at slot occ[m2] + 1
                top = 4 << occ[m2] if m2 < last else 4 << size
                for i in range(j, k):
                    masks[i] |= top - (2 << free[i])
                continue
            if m2 > m:
                # the range lies before n, where pv's slots keep their place
                lo = occ[m - 1] + 1 if m else 0
                hi = occ[m]
            else:
                # the range lies after n, where pv's slots move up one
                lo = occ[m - 2] + 2
                hi = occ[m - 1] + 1 if m - 1 < last else size + 1
            bits = (2 << hi) - (1 << lo)
            for i in range(j, k):
                masks[i] |= bits
    return masks


def simples_in_class(patterns: Sequence[Permutation], maxlen: int) -> set[Permutation]:
    """Simple permutations of the class up to the given size.

    Whether the class has any larger simple permutations is not decided here;
    `_simples_certified` tells when the found set is all of them.
    """
    members = class_members(patterns, maxlen)
    return {p for n in range(4, maxlen + 1) for p in members[n] if is_simple(p)}


def _simples_certified(simples: Iterable[Permutation], maxlen: int) -> bool:
    """Whether a class's simples up to maxlen are all of them: a simple of
    size n contains one of size n-1 or n-2, counting 1, 12 and 21 (Schmerl &
    Trotter 1993), and none has size 3, so a bound of at least 4 with none
    of size maxlen-1 or maxlen rules out every larger one."""
    return maxlen >= 4 and all(len(s) < maxlen - 1 for s in simples)


def closure_members(simples: Iterable[Permutation], nmax: int) -> dict[int, list[Permutation]]:
    """The substitution closure's members up to size nmax, in generating-tree order."""
    return {n: [p for p, _, _ in lv] for n, lv in _decomposed_closure(simples, nmax)[0].items()}


def _decomposed_closure(simples: Iterable[Permutation], nmax: int) -> tuple[dict, dict]:
    """closure_members as (member, root, children), root None at size 1, and
    the mask of slots open to the next maximum (`_grow`) of each member below
    nmax.  Level n holds each member once, as its canonical decomposition
    s[k_1..k_k] (Albert & Atkinson 2005), built from the levels below for
    every root s and choice of children.  It is sorted by the index in level
    n-1 of the member less n, then the slot of n; the member less n is in the
    closure, as `simple_set` refuses a set not closed under simple patterns."""
    if nmax < 0:
        raise InvalidInputError(f"size must be non-negative, got {nmax}")
    roots = (PLUS, MINUS, *simple_set(simples).simples)
    levels = {0: [], 1: [(ONE, None, ())]}
    slots = {(): 1}

    @cache
    def block(m, by, bar):
        """The size-m members whose root is not bar, every value raised by `by`."""
        return [tuple([x + by for x in p]) if by else p for p, r, _ in levels[m] if r != bar]

    for n in range(2, nmax + 1):
        index = {p: i * n for i, (p, _, _) in enumerate(levels[n - 1])}
        placed = [None] * (len(index) * n)
        for s in roots:
            # the first child of a plus (minus) node is not one; 0 bars no root
            bars = [s if len(s) == 2 else 0] + [0] * n
            for cuts in combinations(range(1, n), len(s) - 1):
                sizes = [hi - lo for lo, hi in pairwise((0, *cuts, n))]
                # a child's values lie above those of the children at smaller root values
                lift = [sum(z for z, v in zip(sizes, s) if v < w) for w in s]
                kids = product(*map(block, sizes, [0] * n, bars))
                for ks, part in zip(kids, product(*map(block, sizes, lift, bars))):
                    # an inflation of permutations is a permutation, so none is checked
                    p = tuple.__new__(Permutation, chain.from_iterable(part))
                    t = p.index(n)
                    q = p[:t] + p[t + 1 :]
                    placed[index[q] + t] = p, s, ks
                    slots[q] = slots.get(q, 0) | 1 << t
        levels[n] = list(filter(None, placed))
    return {n: levels[n] for n in range(nmax + 1)}, slots


def member_of_restriction(
    sigma: Permutation, r: Restriction, simples: Iterable[Permutation]
) -> bool:
    """Direct evaluation of the restriction's defining conditions."""
    if len(sigma) == 0:
        return False
    tree = _closure_tree(sigma, simples)
    if tree is None or _delta_bars(r.delta, tree[0][1]):
        return False
    return not any(contains(sigma, e) for e in r.avoid) and all(
        contains(sigma, a) for a in r.contain
    )


@dataclass
class AuditReport:
    """Outcome of checking a system's equations against direct enumeration."""

    nmax: int
    equations_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = f"audit to size {self.nmax}: {self.equations_checked} equations, "
        if self.passed:
            return head + "no violations"
        lines = "\n  ".join(self.violations[:20])
        more = "" if len(self.violations) <= 20 else f"\n  ... {len(self.violations) - 20} more"
        return head + f"{len(self.violations)} violations\n  {lines}{more}"


class _Denotations:
    """Size-indexed member sets of restrictions, computed once each, over
    `table[n][root]`: the size-n closure members with that root, as (member,
    root, children), in enumeration order.

    Each pattern a restriction names is grown once, by `_grow` over the
    closure's own insertion slots, into the closure members that avoid it.
    A restriction's members are then the closure level its delta leaves,
    intersected with the avoiders of each avoided pattern, less those of
    each contained one.
    """

    def __init__(self, simples: Sequence[Permutation], nmax: int):
        self.nmax = nmax
        levels, self._slots = _decomposed_closure(simples, nmax)
        self.table: dict[int, dict[Permutation | None, list[tuple]]] = {n: {} for n in levels}
        for n, level in levels.items():
            for entry in level:
                self.table[n].setdefault(entry[1], []).append(entry)
        self._levels: dict[tuple[str, int], frozenset[Permutation]] = {}
        self._avoiders: dict[Permutation, list[frozenset[Permutation]]] = {}
        self._cache: dict[tuple[Restriction, int], frozenset[Permutation]] = {}
        self._columns: dict[tuple[int, Permutation], tuple[list, list]] = {}

    def members(self, r: Restriction, n: int) -> frozenset[Permutation]:
        key = (r, n)
        if key not in self._cache:
            got = self._level(r.delta, n)
            for e in r.avoid:
                got &= self._avoiding(e)[n]
            for a in r.contain:
                got -= self._avoiding(a)[n]
            self._cache[key] = got
        return self._cache[key]

    def below(self, r: Restriction, n: int) -> frozenset[Permutation]:
        """The members of r smaller than n.  Sets of different sizes are
        disjoint, so a permutation is in this union exactly when it is in
        the member set of its own size."""
        return frozenset().union(*(self.members(r, m) for m in range(n)))

    def _level(self, delta: str, n: int) -> frozenset[Permutation]:
        """The size-n closure members outside the root that delta bars."""
        key = (delta, n)
        if key not in self._levels:
            self._levels[key] = frozenset(
                p
                for root, bucket in self.table[n].items()
                if not _delta_bars(delta, root)
                for p, _, _ in bucket
            )
        return self._levels[key]

    def _avoiding(self, e: Permutation) -> list[frozenset[Permutation]]:
        """The closure members avoiding e, by size, grown the first time e
        is asked for by the blocked-slot rule (`_child_masks`) over the
        closure's own insertion slots (`_grow`)."""
        if e not in self._avoiders:
            grown = _grow((e,), self.nmax, self._slots.__getitem__)
            self._avoiders[e] = [frozenset(grown[n]) for n in range(self.nmax + 1)]
        return self._avoiders[e]

    def columns(self, n: int, root: Permutation) -> tuple[list[Permutation], list[tuple]]:
        """The size-n members with this root, and their children as one
        column per child."""
        key = (n, root)
        if key not in self._columns:
            bucket = self.table[n].get(root, ())
            self._columns[key] = ([p for p, _, _ in bucket], list(zip(*(k for _, _, k in bucket))))
        return self._columns[key]


def audit_specification(
    system: EquationSystem,
    basis_patterns: Sequence[Permutation],
    nmax: int,
) -> AuditReport:
    """Check, for every equation and size up to nmax, that the right-hand
    side parts are pairwise disjoint (for disjoint-flagged equations), that
    their union is exactly the left-hand side, and that the first equation's
    left side is exactly the brute-force class."""
    if nmax < 1:
        raise InvalidInputError(f"audit needs nmax >= 1, got {nmax}")
    report = AuditReport(nmax=nmax)
    den = _Denotations(system.simples, nmax)
    truth = class_members(basis_patterns, nmax)
    for lhs, eq in system.equations.items():
        report.equations_checked += 1
        for n in range(1, nmax + 1):
            parts: list[tuple[str, frozenset[Permutation]]] = []
            if eq.has_one and n == 1:
                parts.append(("1", frozenset({ONE})))
            for t in eq.terms:
                # the bucket's kids are tested a column at a time
                members, columns = den.columns(n, t.root)
                found = [
                    map(den.below(c, n).__contains__, kids)
                    for c, kids in zip(t.children, columns)
                ]
                hits = frozenset(compress(members, map(all, zip(*found))))
                parts.append((str(t), hits))
            union: set[Permutation] = set()
            total = 0
            for _, ms in parts:
                union |= ms
                total += len(ms)
            if eq.disjoint and total != len(union):
                witness = _overlap_witness(parts)
                report.violations.append(
                    f"size {n}: overlapping terms in [{eq.lhs}]: {witness}"
                )
            expected = den.members(lhs, n)
            if union != expected:
                report.violations.append(
                    f"size {n}: rhs of [{eq.lhs}] mismatch; {_difference(expected, union)}"
                )
    for n in range(1, nmax + 1):
        got = den.members(system.root, n)
        want = set(truth[n])
        if got != want:
            report.violations.append(
                f"size {n}: class restriction [{system.root}] disagrees with Av(basis); "
                + _difference(want, got)
            )
    return report


def _difference(want, got) -> str:
    """Up to three members of each side that the other lacks."""
    missing = sorted(want - got, key=sort_key)[:3]
    extra = sorted(got - want, key=sort_key)[:3]
    return f"missing {missing}, extra {extra}"


def _overlap_witness(parts) -> str:
    """The least member, in `sort_key` order, that two parts share, and the
    first two parts holding it; the parts must overlap."""
    counts = Counter(p for _, ms in parts for p in ms)
    p = min((p for p, c in counts.items() if c > 1), key=sort_key)
    first, second = [label for label, ms in parts if p in ms][:2]
    return f"{p} belongs to both {first} and {second}"
