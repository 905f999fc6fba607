"""Permutations in one-line notation: patterns, intervals, substitution,
and the canonical block decomposition.

A permutation of size n is stored as the tuple of its values, a bijection of
1..n.  All indices exposed by this module are 1-based.  The empty permutation
is a legal value (it shows up in generalized substitutions) but is rejected
by the decomposition routines.

All functions here are pure; values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import DecompositionError, InvalidInputError, InvalidPermutationError

Interval = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Permutation:
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        if sorted(self.values) != list(range(1, n + 1)):
            raise InvalidPermutationError(f"not a permutation of 1..{n}: {self.values}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)

    def __repr__(self) -> str:
        return f"perm('{self}')" if self.values else "EMPTY"

    def compact(self) -> str:
        """Digit string when n <= 9, space-separated otherwise."""
        if len(self.values) <= 9:
            return "".join(str(v) for v in self.values)
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
            return Permutation(tuple(int(c) for c in parts[0]))
        return Permutation(tuple(int(p) for p in parts))
    return Permutation(tuple(spec))


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
    return Permutation(tuple(ranks[v] for v in values))


def pattern_of(p: Permutation, indices: Sequence[int]) -> Permutation:
    """The pattern induced on a set of 1-based positions of p."""
    return normalize([p.values[i - 1] for i in sorted(indices)])


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


@lru_cache(maxsize=1 << 20)
def contains(host: Permutation, patt: Permutation) -> bool:
    """Whether patt occurs as a (classical) pattern of host; memoized, since
    the restriction algebra and the oracle ask about the same pairs often."""
    for _ in _occurrence_search(host.values, patt.values, find_all=False):
        return True
    return False


def avoids(host: Permutation, patt: Permutation) -> bool:
    return not contains(host, patt)


def _occurrence_search(
    hv: tuple[int, ...], pv: tuple[int, ...], find_all: bool
) -> Iterator[tuple[int, ...]]:
    """Backtracking occurrence search, pruning by remaining length and by
    order-consistency of each extension against the already chosen prefix."""
    n, k = len(hv), len(pv)
    if k == 0:
        yield ()
        return
    if k > n:
        return
    chosen: list[int] = []

    def extend(slot: int, start: int) -> Iterator[tuple[int, ...]]:
        if slot == k:
            yield tuple(chosen)
            return
        pslot = pv[slot]
        for pos in range(start, n - (k - slot) + 1):
            v = hv[pos]
            if all((v > hv[c]) == (pslot > pv[t]) for t, c in enumerate(chosen)):
                chosen.append(pos)
                yield from extend(slot + 1, pos + 1)
                chosen.pop()

    for occ in extend(0, 0):
        yield occ
        if not find_all:
            return


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


def all_intervals(p: Permutation) -> set[Interval]:
    out: set[Interval] = set()
    for i in range(1, len(p) + 1):
        out |= intervals_from(p, i)
    return out


def proper_intervals(p: Permutation) -> set[Interval]:
    """Intervals other than the singletons and the full range."""
    n = len(p)
    return {(i, j) for (i, j) in all_intervals(p) if i < j and (i, j) != (1, n)}


def is_simple(p: Permutation) -> bool:
    """Size >= 4 with only trivial intervals (1, 12, 21 do not count as simple)."""
    return len(p) >= 4 and not proper_intervals(p)


def normalized_blocks(p: Permutation) -> set[Permutation]:
    """Patterns induced on every interval of p (including p itself and 1)."""
    return {pattern_at(p, iv) for iv in all_intervals(p)}


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
    offsets = inflation_offsets(root, [len(b) for b in blocks])
    out: list[int] = []
    for i in range(n):
        out.extend(v + offsets[i] for v in blocks[i].values)
    return Permutation(tuple(out))


def inflation_offsets(root: Permutation, sizes: Sequence[int]) -> list[int]:
    """Value offset of each block of an inflation of root by blocks of the
    given sizes: the total size of the blocks at smaller root values."""
    offsets = [0] * len(sizes)
    acc = 0
    for i in sorted(range(len(sizes)), key=root.values.__getitem__):
        offsets[i] = acc
        acc += sizes[i]
    return offsets


def is_plus_decomposable(p: Permutation) -> bool:
    return _linear_split(p, plus=True) is not None


def is_minus_decomposable(p: Permutation) -> bool:
    return _linear_split(p, plus=False) is not None


def _linear_split(p: Permutation, plus: bool) -> int | None:
    """Smallest proper prefix length j whose values are the j lowest (plus)
    or the j highest (minus); None when no such prefix exists."""
    n = len(p)
    if plus:
        hi = 0
        for j in range(1, n):
            hi = max(hi, p.values[j - 1])
            if hi == j:
                return j
    else:
        lo = n + 1
        for j in range(1, n):
            lo = min(lo, p.values[j - 1])
            if lo == n - j + 1:
                return j
    return None


def decompose(p: Permutation) -> tuple[Permutation, tuple[Permutation, ...]]:
    """The canonical one-level block decomposition (root, children).

    The root is 12 with a plus-indecomposable first child, or 21 with a
    minus-indecomposable first child, or a simple permutation; exactly one of
    the three shapes applies, and substitute(root, children) reconstructs p.
    """
    n = len(p)
    if n < 2:
        raise DecompositionError(f"cannot decompose a permutation of size {n}")
    j = _linear_split(p, plus=True)
    if j is not None:
        return PLUS, (pattern_at(p, (1, j)), pattern_at(p, (j + 1, n)))
    j = _linear_split(p, plus=False)
    if j is not None:
        return MINUS, (pattern_at(p, (1, j)), pattern_at(p, (j + 1, n)))
    parts = _maximal_interval_partition(p)
    skeleton = normalize([p.values[i - 1] for (i, _) in parts])
    if not is_simple(skeleton):  # impossible for a valid input permutation
        raise DecompositionError(f"quotient of {p} by maximal intervals is not simple")
    return skeleton, tuple(pattern_at(p, iv) for iv in parts)


def _maximal_interval_partition(p: Permutation) -> list[Interval]:
    """Partition of 1..n into maximal proper intervals plus singletons.

    Only valid when p has no linear split at the root: the quotient is then
    simple, so every interval other than (1, n) lies inside one part, and the
    part starting at position i is the longest such interval from i.
    """
    n = len(p)
    parts: list[Interval] = []
    i = 1
    while i <= n:
        j = max(j for (_, j) in intervals_from(p, i) if (i, j) != (1, n))
        parts.append((i, j))
        i = j + 1
    return parts


def in_closure(p: Permutation, simples: Iterable[Permutation]) -> bool:
    """Whether every prime node of p's decomposition tree carries a
    permutation from the given set of simple permutations.

    The tree is walked with an explicit stack, so its depth (up to the size
    of p) is not bounded by the interpreter's recursion limit.
    """
    allowed = set(simples)
    for s in allowed:
        if not is_simple(s):
            raise InvalidInputError(f"{s} is not simple")
    if len(p) == 0:
        raise DecompositionError("the empty permutation is not a class member")
    stack = [p]
    while stack:
        q = stack.pop()
        if len(q) == 1:
            continue
        root, children = decompose(q)
        if root not in (PLUS, MINUS) and root not in allowed:
            return False
        stack.extend(children)
    return True
