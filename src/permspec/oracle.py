"""Brute-force ground truth used to verify every other stage on small sizes.

Class and closure members are enumerated incrementally: inserting the new
maximum value into a member of size n-1 in every possible way produces each
size-n permutation exactly once (the generating tree of West, *Generating
trees and the Catalan and Schröder numbers*, 1995), and both kinds of set are
closed under removing the maximum, so filtering candidates by the defining
predicate is exhaustive.

Class members are filtered at the insertion site rather than by a full
containment search.  The parent already avoids every basis pattern, so a
child can only contain a pattern beta through an occurrence that uses the
new maximum n.  Since n is the child's largest entry, such an occurrence maps
beta's maximum onto n, and the rest of it is an occurrence of rest (beta
with its maximum deleted) in the parent, split by position at the slot where
n went; so each member's blocked slots form a bit mask.  Rather than search
every parent for rest, a child inherits its parent's mask, shifted past the
new entry, and adds only the occurrences of rest that use n: n plays rest's
maximum, and the other entries are an occurrence of rest2 (rest with its
maximum deleted too) in the parent that straddles the slot.  Each parent
thus searches for rest2, two entries shorter than beta, and the last level
searches for nothing.  Everything here trades speed for obviousness, except
those two steps.

Closure members keep the decomposition that admitted them.  The audit reads
restriction and term members from that table, by size and root: a term scans
only the members with its root, and a delta skips the root it bars.  The
audit memoizes (member, pattern) containment only while it runs.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidInputError
from .perms import (
    MINUS,
    ONE,
    PLUS,
    Permutation,
    _allowed_simples,
    _closure_tree,
    _occurrence_search,
    contains,
    decompose,
    is_simple,
    sort_key,
)
from .restrictions import Restriction, RestrictionTerm, _bits, _delta_bars
from .system import EquationSystem


def enumerate_class(patterns: Sequence[Permutation], n: int) -> list[Permutation]:
    """All size-n permutations avoiding every basis pattern."""
    return class_members(patterns, n)[n]


def class_members(patterns: Sequence[Permutation], nmax: int) -> dict[int, list[Permutation]]:
    """Members of the class for every size up to nmax.

    Each size-n member is a size-(n-1) member p with n inserted at one of
    the slots 0..n-1 (slot s puts n before p's entry at 0-based position s).
    Every member carries a mask whose bit s is set when inserting the next
    maximum at slot s would complete a basis pattern; its children are its
    free slots, in slot order, which is the order of inserting n everywhere
    and keeping the avoiders.  A child's mask is its parent's, shifted up one
    past the child's slot, plus the ranges that n blocks through occurrences
    in the parent of a pattern without its two largest values that straddle
    that slot (`_child_masks`).  So only parents below the last level are
    searched, each for patterns two entries shorter than the basis.  The
    walk is depth first on an explicit stack, each parent appending all its
    children to their level before any of them is expanded, so every level
    lists its members in that order and only the masks of pending siblings
    are held.  A pattern of size 0 or 1 occurs in every nonempty
    permutation, so it leaves every level empty.
    """
    if nmax < 0:
        raise InvalidInputError(f"size must be non-negative, got {nmax}")
    out: dict[int, list[Permutation]] = {n: [] for n in range(nmax + 1)}
    if nmax == 0 or any(len(b) <= 1 for b in patterns):
        return out
    cuts = [_insertion_cut(b) for b in patterns]
    # the empty permutation, not itself a member, blocks no slot
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        pv, mask = stack.pop()
        n = len(pv) + 1
        free = list(_bits(~mask & ((1 << n) - 1)))
        kids = [Permutation(pv[:t] + (n,) + pv[t:]) for t in free]
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

    For a pattern beta with maximum at index m, every occurrence occ of rest
    (beta without its maximum) in the child blocks the slots
    occ[m-1]+1 .. occ[m], the ends read as 0 and n.  An occurrence that
    misses n is one of pv's, shifted past t; since t was free, none covers
    slot t or t+1.  One that uses n has n at rest's maximum, index m2, and
    the rest of it is an occurrence of rest2 in pv that t splits after its
    first m2 entries, so the blocked range follows from that occurrence and
    t alone.
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
    allowed = _allowed_simples(simples)
    out: dict[int, list] = {0: []}
    if nmax >= 1:
        out[1] = [(ONE, None, ())]
    known: set[Permutation] = {ONE}
    for n in range(2, nmax + 1):
        level = []
        for parent, _, _ in out[n - 1]:
            for t in range(n):
                p = Permutation(parent[:t] + (n,) + parent[t:])
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
    children, in enumeration order.  Containment of a (member, pattern) pair
    is memoized for as long as the instance lives, which is one audit."""

    def __init__(self, simples: Sequence[Permutation], nmax: int):
        self.table: dict[int, dict[Permutation | None, list[tuple[Permutation, tuple]]]] = {}
        for n, level in _decomposed_closure(simples, nmax).items():
            buckets = self.table[n] = {}
            for p, root, kids in level:
                buckets.setdefault(root, []).append((p, kids))
        self._cache: dict[tuple[Restriction, int], frozenset[Permutation]] = {}
        self._contains = functools.cache(contains)

    def members(self, r: Restriction, n: int) -> frozenset[Permutation]:
        key = (r, n)
        if key not in self._cache:
            has = self._contains
            # closure membership holds by construction; only the delta and
            # the pattern constraints need testing here
            self._cache[key] = frozenset(
                p
                for root, bucket in self.table[n].items()
                if not _delta_bars(r.delta, root)
                for p, _ in bucket
                if not any(has(p, e) for e in r.avoid) and all(has(p, a) for a in r.contain)
            )
        return self._cache[key]

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
                # each child's member sets by size, looked up once per term
                sets = [[den.members(c, m) for m in range(n)] for c in t.children]
                hits = frozenset(
                    p
                    for p, kids in den.table[n].get(t.root, ())
                    if all(kid in s[len(kid)] for kid, s in zip(kids, sets))
                )
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
