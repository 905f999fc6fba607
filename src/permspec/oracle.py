"""Brute-force ground truth used to verify every other stage on small sizes.

Class and closure members are enumerated incrementally: inserting the new
maximum value into a member of size n-1 in every possible way produces each
size-n permutation exactly once (the generating tree of West, *Generating
trees and the Catalan and Schröder numbers*, 1995), and both kinds of set are
closed under removing the maximum, so filtering candidates by the defining
predicate is exhaustive.

Avoiders are filtered at the insertion site rather than by a full
containment search.  A member avoiding a pattern beta has a child containing
beta only through an occurrence that uses the new maximum n, which plays
beta's maximum; so each member's blocked slots form a bit mask, which its
children inherit and extend (`_child_masks`).  One walk (`_grow`) applies
this rule to the class's members and to the closure members avoiding each
pattern an audit meets.  Everything here trades speed for obviousness,
except that rule.

Closure members keep the decomposition that admitted them.  The audit reads
restriction and term members from that table, by size and root: a term scans
only the members with its root, a child column at a time, and a delta skips
the root it bars.  A restriction's members are intersections and differences
of the avoider sets, and the audit runs no containment search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
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
    decompose,
    is_simple,
    sort_key,
)
from .restrictions import Restriction, RestrictionTerm, _bits, _delta_bars
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
    pv's entry at 0-based position s).

    Every member carries the mask of the slots where the next maximum would
    complete a pattern (`_child_masks`); its children are its open slots
    that no pattern blocks, in slot order.  The walk is depth first on an
    explicit stack, each parent appending all its children to their level
    before any of them is expanded, so every level lists its members in the
    order of taking each parent of the level below in turn and inserting n
    at every open slot, and only the masks of pending siblings are held.  A
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
    """Members of the substitution closure for every size up to nmax."""
    return {n: [p for p, _, _ in level] for n, level in _decomposed_closure(simples, nmax).items()}


def _decomposed_closure(
    simples: Iterable[Permutation], nmax: int
) -> dict[int, list[tuple[Permutation, Permutation | None, tuple[Permutation, ...]]]]:
    """closure_members, each member as (member, root, children) of its
    one-level decomposition, root None at size 1.  A candidate is a member
    iff its root is allowed and all its children are members; children are
    smaller, hence already enumerated."""
    if nmax < 0:
        raise InvalidInputError(f"size must be non-negative, got {nmax}")
    # a member less its maximum stays in the closure only if the set is
    # closed under simple patterns, so refuse one that is not, as a spec
    # file's would be
    allowed = set(simple_set(simples).simples)
    out: dict[int, list] = {0: []}
    if nmax >= 1:
        out[1] = [(ONE, None, ())]
    known: set[Permutation] = {ONE}
    for n in range(2, nmax + 1):
        level = []
        for parent, _, _ in out[n - 1]:
            for t in range(n):
                # inserting n into a permutation of 1..n-1 gives one of 1..n
                p = tuple.__new__(Permutation, parent[:t] + (n,) + parent[t:])
                root, kids = decompose(p)
                if (root == PLUS or root == MINUS or root in allowed) and all(
                    k in known for k in kids
                ):
                    level.append((p, root, kids))
        known.update(p for p, _, _ in level)
        out[n] = level
    return out


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
    `table[n][root]`: the size-n closure members with that root and their
    children, in enumeration order.

    Each pattern a restriction names is grown once, by `_grow` over the
    closure's own insertion slots, into the closure members that avoid it.
    A restriction's members are then the closure level its delta leaves,
    intersected with the avoiders of each avoided pattern, less those of
    each contained one.
    """

    def __init__(self, simples: Sequence[Permutation], nmax: int):
        self.nmax = nmax
        self.table: dict[int, dict[Permutation | None, list[tuple[Permutation, tuple]]]] = {}
        # each member below nmax (and the empty permutation) mapped to the
        # mask of the slots where inserting the next maximum stays in the closure
        self._slots: dict[tuple[int, ...], int] = {}
        for n, level in _decomposed_closure(simples, nmax).items():
            buckets = self.table[n] = {}
            for p, root, kids in level:
                buckets.setdefault(root, []).append((p, kids))
                t = p.index(n)
                q = p[:t] + p[t + 1 :]
                self._slots[q] = self._slots.get(q, 0) | 1 << t
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
                for p, _ in bucket
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
            self._columns[key] = ([p for p, _ in bucket], list(zip(*(k for _, k in bucket))))
        return self._columns[key]

    def in_term(self, t: RestrictionTerm, root: Permutation | None, kids) -> bool:
        """Whether the member with this root and these children lies in the
        inflation that t denotes."""
        return root == t.root and all(
            kid in self.members(child, len(kid)) for kid, child in zip(kids, t.children)
        )


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
