"""Permutations in one-line notation: patterns, intervals, substitution,
and the substitution decomposition tree.

A permutation of size n is the tuple of its values, a bijection of 1..n,
checked once when it is built: its length, iteration, equality and hash are
the tuple's own, and `values` is the permutation itself.  All indices exposed
by this module are 1-based.  The empty permutation is a legal value (it shows
up in generalized substitutions) but is rejected by the decomposition
routines.

`decomposition_tree` is the one decomposition walker; `decompose` is its
first level with normalized children, `in_closure` checks its roots, and
`is_simple` counts the parts of one split of the whole permutation.
Pattern search extends a partial occurrence by one constant-time check per
candidate: the new value must lie between the host values at the two earlier
slots whose pattern values are nearest below and above (Albert, Aldred,
Atkinson & Holton, *Algorithms for pattern involvement in permutations*, 2001).

All functions here are pure; values are immutable and hashable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DecompositionError, InvalidInputError, InvalidPermutationError

Interval = tuple[int, int]


class Permutation(tuple):
    """A checked tuple of values, equal to and hashing like the plain tuple;
    slices and sums are plain tuples, and `<` is lexicographic (`sort_key` is
    the canonical order)."""

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> Permutation:
        self = tuple.__new__(cls, values)
        n = len(self)
        if sorted(self) != list(range(1, n + 1)):
            raise InvalidPermutationError(f"not a permutation of 1..{n}: {tuple(self)}")
        return self

    @property
    def values(self) -> tuple[int, ...]:
        return self

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"perm('{self}')" if self else "EMPTY"

    def compact(self) -> str:
        """Digit string when n <= 9, space-separated otherwise."""
        if len(self) <= 9:
            return "".join(map(str, self))
        return str(self)


EMPTY = Permutation(())
ONE = Permutation((1,))
PLUS = Permutation((1, 2))
MINUS = Permutation((2, 1))


def perm(spec: str | Iterable[int]) -> Permutation:
    """Build a permutation from '3 1 4 2', '3142' (values <= 9) or an iterable.

    >>> perm("3142") == perm("3 1 4 2") == perm([3, 1, 4, 2])
    True
    """
    if isinstance(spec, str):
        text = spec.strip()
        if not text:
            return EMPTY
        parts = text.split()
        if len(parts) == 1 and len(parts[0]) > 1:
            return Permutation(int(c) for c in parts[0])
        return Permutation(int(p) for p in parts)
    return Permutation(spec)


def sort_key(p: Permutation) -> tuple[int, tuple[int, ...]]:
    """Canonical order on permutations: by size, then one-line form."""
    return (len(p.values), p.values)


def normalize(values: Sequence[int]) -> Permutation:
    """The unique permutation order-isomorphic to a sequence of distinct integers.

    >>> normalize((3, 6, 4, 2))
    perm('2 4 3 1')
    """
    if len(set(values)) != len(values):
        raise InvalidPermutationError(f"duplicate entries in {values!r}")
    ranks = {v: i + 1 for i, v in enumerate(sorted(values))}
    return Permutation(ranks[v] for v in values)


def pattern_at(p: Permutation, interval: Interval) -> Permutation:
    """The normalized block of p on the 1-based inclusive range (i, j)."""
    i, j = interval
    return normalize(p.values[i - 1 : j])


def occurrences(host: Permutation, patt: Permutation) -> set[tuple[int, ...]]:
    """All strictly increasing 1-based index tuples I with host_I = patt."""
    out: set[tuple[int, ...]] = set()
    for occ in _occurrence_search(host.values, patt.values, find_all=True):
        out.add(tuple(i + 1 for i in occ))
    return out


def contains(host: Permutation, patt: Permutation) -> bool:
    """Whether patt occurs as a (classical) pattern of host."""
    for _ in _occurrence_search(host.values, patt.values, find_all=False):
        return True
    return False


def avoids(host: Permutation, patt: Permutation) -> bool:
    return not contains(host, patt)


def _occurrence_search(
    hv: tuple[int, ...], pv: tuple[int, ...], find_all: bool
) -> Iterator[tuple[int, ...]]:
    """Occurrences of the pattern pv in the permutation hv as increasing
    0-based position tuples, in lexicographic order (only the first unless
    find_all).

    One backtracking loop over the pattern's slots.  A prefix of an
    occurrence is order-isomorphic to the pattern's prefix, so a position
    extends it exactly when its value lies strictly between the host values
    at the two slots `_slot_bounds` names; slots that cannot be completed
    before the host ends are never tried.
    """
    n, k = len(hv), len(pv)
    if k == 0:
        yield ()
        return
    below, above = _slot_bounds(pv)
    # vals[t] is the host value at slot t; vals[k] and vals[k + 1] bound
    # every value of a permutation of 1..n from below and above
    vals = [0] * k + [0, n + 1]
    chosen = [0] * k
    last = k - 1
    t = start = 0
    while True:
        lo, hi = vals[below[t]], vals[above[t]]
        for pos in range(start, n - last + t):
            v = hv[pos]
            if lo < v < hi:
                chosen[t] = pos
                if t < last:
                    break
                yield tuple(chosen)
                if not find_all:
                    return
        else:
            # slot t is exhausted: move the slot before it on
            if t == 0:
                return
            t -= 1
            start = chosen[t] + 1
            continue
        vals[t] = v
        t += 1
        start = pos + 1


@lru_cache(maxsize=1 << 12)
def _slot_bounds(pv: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per slot t of the pattern, the earlier slot holding the largest value
    below pv[t] and the earlier slot holding the smallest value above it;
    len(pv) and len(pv) + 1 stand for "none" (see `_occurrence_search`)."""
    k = len(pv)
    below, above = [], []
    for t, x in enumerate(pv):
        lo, hi = k, k + 1
        for s in range(t):
            y = pv[s]
            if x > y and (lo == k or y > pv[lo]):
                lo = s
            elif x < y and (hi == k + 1 or y < pv[hi]):
                hi = s
        below.append(lo)
        above.append(hi)
    return tuple(below), tuple(above)


def intervals_from(p: Permutation, i: int) -> set[Interval]:
    """All intervals of p starting at position i, by one left-to-right sweep.

    A range (i, j) is an interval when the values it covers are consecutive,
    i.e. max - min = j - i over the window.
    """
    n = len(p)
    if not 1 <= i <= n:
        raise InvalidInputError(f"start index {i} out of range 1..{n}")
    out: set[Interval] = set()
    lo = hi = p.values[i - 1]
    for j in range(i, n + 1):
        v = p.values[j - 1]
        lo = min(lo, v)
        hi = max(hi, v)
        if hi - lo == j - i:
            out.add((i, j))
    return out


def is_simple(p: Permutation) -> bool:
    """Size >= 4 with only trivial intervals (1, 12, 21 are not simple).  A
    proper interval makes the split a plus or minus node, or merges entries
    into one part, so p is simple iff it has no plus or minus split and one
    part per entry; the parts are counted, and no quotient is built."""
    n = len(p)
    return n >= 4 and _sum_split(p.values, 0, n, 0) is None and len(_parts(p.values, 0, n)) == n


def normalized_blocks(p: Permutation) -> set[Permutation]:
    """Patterns induced on every interval of p (including p itself and 1)."""
    return {pattern_at(p, iv) for i in range(1, len(p) + 1) for iv in intervals_from(p, i)}


def substitute(root: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """The inflation root[b1, ..., bn]; every block must be non-empty."""
    if any(len(b) == 0 for b in blocks):
        raise InvalidInputError("empty block; use generalized_substitute")
    return generalized_substitute(root, blocks)


def generalized_substitute(root: Permutation, blocks: Sequence[Permutation]) -> Permutation:
    """Inflation where blocks may be the empty permutation (deleted slots)."""
    n = len(root)
    if len(blocks) != n:
        raise InvalidInputError(f"expected {n} blocks, got {len(blocks)}")
    # a block's value offset is the total size of the blocks at smaller root
    # values
    offsets = [0] * n
    acc = 0
    for i in sorted(range(n), key=root.values.__getitem__):
        offsets[i] = acc
        acc += len(blocks[i])
    out: list[int] = []
    for i in range(n):
        out.extend(v + offsets[i] for v in blocks[i].values)
    return Permutation(out)


def _split(values: tuple[int, ...], pos: int, size: int, offset: int) -> tuple[Permutation, tuple]:
    """The canonical one-level decomposition of a block of a permutation.

    The block is a window of the permutation's values: its entries are
    values[pos : pos + size] and they are offset + 1 .. offset + size.
    Returns the root and the children's windows (pos, size, offset): the
    plus or minus split when there is one, else the quotient by the parts.
    """
    split = _sum_split(values, pos, size, offset)
    if split is not None:
        return split
    parts = _parts(values, pos, size)
    return normalize([low for _, _, low in parts]), parts


def _sum_split(values: tuple[int, ...], pos: int, size: int, offset: int):
    """The root 12 (21) and its two windows when some proper prefix of the
    block holds its lowest (highest) values, else None.  The shortest such
    prefix is the first child, which is then plus- (minus-) indecomposable."""
    lo, hi = offset + size + 1, offset
    for j in range(1, size):
        x = values[pos + j - 1]
        if x > hi:
            hi = x
        if x < lo:
            lo = x
        if hi == offset + j:
            return PLUS, ((pos, j, offset), (pos + j, size - j, offset + j))
        if lo == offset + size - j + 1:
            return MINUS, ((pos, j, offset + size - j), (pos + j, size - j, offset))
    return None


def _parts(values: tuple[int, ...], pos: int, size: int) -> tuple:
    """The windows of the maximal proper intervals of a block with no plus or
    minus split.  Its quotient by them is simple (Albert & Atkinson 2005), so
    every proper interval lies inside one part, and the part starting at a
    position is the longest proper interval from there."""
    parts = []
    i, end = pos, pos + size
    while i < end:
        # one sweep from i; the first part may not be the whole block
        lo = hi = values[i]
        stop, low = i + 1, lo
        for j in range(i + 1, end if i > pos else end - 1):
            x = values[j]
            if x < lo:
                lo = x
            elif x > hi:
                hi = x
            if hi - lo == j - i:
                stop, low = j + 1, lo
        parts.append((i, stop - i, low - 1))
        i = stop
    return tuple(parts)


def decompose(p: Permutation) -> tuple[Permutation, tuple[Permutation, ...]]:
    """The canonical one-level block decomposition (root, children): the
    first level of `decomposition_tree`.

    The root is 12 with a plus-indecomposable first child, or 21 with a
    minus-indecomposable first child, or a simple permutation; exactly one of
    the three shapes applies, and substitute(root, children) reconstructs p.
    """
    n = len(p)
    if n < 2:
        raise DecompositionError(f"cannot decompose a permutation of size {n}")
    root, windows = _split(p.values, 0, n, 0)
    return root, tuple(
        Permutation(x - offset for x in p.values[pos : pos + size])
        for pos, size, offset in windows
    )


def decomposition_tree(p: Permutation) -> list[tuple[int, Permutation | None, int]]:
    """p's substitution decomposition tree, breadth first, as (size, root,
    index of the first child) per node; the root is None at the leaves (size
    1), and a node's children are the len(root) nodes from that index on.

    Every node is a window of p's own values, so no block is copied and the
    walk is iterative: a plus chain 12...n costs O(n).
    """
    n = len(p)
    if n == 0:
        raise DecompositionError("the empty permutation has no decomposition tree")
    windows = [(0, n, 0)]
    tree = []
    for pos, size, offset in windows:  # appending while iterating is safe
        if size == 1:
            tree.append((1, None, len(windows)))
        else:
            root, kids = _split(p.values, pos, size, offset)
            tree.append((size, root, len(windows)))
            windows.extend(kids)
    return tree


def in_closure(p: Permutation, simples: Iterable[Permutation]) -> bool:
    """Whether every prime node of p's decomposition tree carries a
    permutation from the given set of simple permutations; a set that no
    class has is refused (`_allowed_simples`)."""
    return _closure_tree(p, simples) is not None


def _closure_tree(
    p: Permutation, simples: Iterable[Permutation]
) -> list[tuple[int, Permutation | None, int]] | None:
    """p's decomposition tree if p lies in the substitution closure of the
    given simple permutations, else None."""
    allowed = _allowed_simples(tuple(simples))
    tree = decomposition_tree(p)
    if all(root in allowed for _, root, _ in tree if root not in (None, PLUS, MINUS)):
        return tree
    return None


@lru_cache(maxsize=1 << 8)
def _allowed_simples(simples: tuple[Permutation, ...]) -> frozenset[Permutation]:
    """The given permutations as a set, refusing any that is not simple and
    any set that is not closed under taking simple patterns: a simple pattern
    of a member is in the member's class, so no class has such a set.
    Memoized, as a membership test checks the same set on every call."""
    allowed = frozenset(simples)
    for s in simples:
        if not is_simple(s):
            raise InvalidInputError(f"{s} is not a simple permutation")
    for s in simples:
        for q in _simple_deletions(s):
            if q not in allowed:
                raise InvalidInputError(
                    f"{q} is a simple pattern of {s} but is missing from the set; "
                    "no permutation class has these exact simple permutations"
                )
    return allowed


def _simple_deletions(p: Permutation) -> set[Permutation]:
    """The simple patterns of p with one or two points deleted; by Schmerl &
    Trotter (Discrete Math. 1993) every simple pattern of a simple p is
    reached from p by such steps through simple permutations."""
    ones = _deletions(p)
    return {q for q in ones.union(*map(_deletions, ones)) if is_simple(q)}


def _deletions(p: Permutation) -> set[Permutation]:
    """The distinct non-empty patterns of p with one entry deleted."""
    if len(p) < 2:
        return set()
    return {Permutation(x - (x > v) for x in p[:k] + p[k + 1 :]) for k, v in enumerate(p)}
