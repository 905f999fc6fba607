"""Block decompositions of a permutation and its embeddings into a root.

A block decomposition of g cuts 1..|g| into consecutive intervals of g.  An
embedding of g into p assigns to every position of p an interval of g (or
nothing), such that the assigned intervals tile 1..|g| from left to right and
the generalized substitution of the induced blocks into p rebuilds g.
Embeddings record every way an occurrence of g can spread over the children
of a permutation whose decomposition root is p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError
from .perms import (
    EMPTY,
    Interval,
    Permutation,
    generalized_substitute,
    intervals_from,
    normalize,
    occurrences,
    pattern_at,
)


@dataclass(frozen=True)
class BlockDecomposition:
    source: Permutation
    parts: tuple[Interval, ...]

    def __post_init__(self) -> None:
        n = len(self.source)
        if not self.parts or self.parts[0][0] != 1 or self.parts[-1][1] != n:
            raise InvalidInputError(f"parts do not cover 1..{n}: {self.parts}")
        pos = 1
        for (i, j) in self.parts:
            if i != pos or j < i:
                raise InvalidInputError(f"parts are not contiguous: {self.parts}")
            # a window of distinct values is an interval when its values are
            # consecutive; a window cut short by the end never passes
            window = self.source.values[i - 1 : j]
            if max(window) - min(window) != j - i:
                raise InvalidInputError(f"({i}, {j}) is not an interval of {self.source}")
            pos = j + 1

    def __len__(self) -> int:
        return len(self.parts)

    def skeleton(self) -> Permutation:
        """Pattern induced by one representative value per part."""
        return normalize([self.source.values[i - 1] for (i, _) in self.parts])

    def blocks(self) -> tuple[Permutation, ...]:
        return tuple(pattern_at(self.source, iv) for iv in self.parts)


@dataclass(frozen=True)
class Embedding:
    source: Permutation
    target: Permutation
    assignment: tuple[Interval | None, ...]

    def __post_init__(self) -> None:
        if len(self.assignment) != len(self.target):
            raise InvalidInputError("assignment length must match target size")
        pos = 1
        for iv in self.assignment:
            if iv is None:
                continue
            i, j = iv
            if i != pos or j < i:
                raise InvalidInputError(
                    f"assigned intervals do not tile 1..{len(self.source)} in order"
                )
            pos = j + 1
        if pos != len(self.source) + 1:
            raise InvalidInputError("assigned intervals do not cover the source")
        if generalized_substitute(self.target, self.blocks()) != self.source:
            raise InvalidInputError("assignment does not rebuild the source permutation")

    def block(self, position: int) -> Permutation:
        """Normalized block assigned to a 1-based target position (EMPTY for none)."""
        iv = self.assignment[position - 1]
        return EMPTY if iv is None else pattern_at(self.source, iv)

    def blocks(self) -> tuple[Permutation, ...]:
        return tuple(self.block(i) for i in range(1, len(self.target) + 1))

    def sort_token(self) -> tuple[Interval, ...]:
        return tuple(iv if iv is not None else (0, 0) for iv in self.assignment)


def block_decompositions(g: Permutation) -> tuple[BlockDecomposition, ...]:
    """All ways to cut g into a sequence of consecutive intervals.

    The first interval starts at 1, each next one starts right after the
    previous ends, and the last ends at |g|.  An increasing permutation of
    size p has 2^(p-1) of them, the worst case.
    """
    if len(g) == 0:
        raise InvalidInputError("the empty permutation has no block decomposition")
    n = len(g)
    starts = {i: sorted(intervals_from(g, i)) for i in range(1, n + 1)}
    done: list[tuple[Interval, ...]] = []
    stack: list[tuple[Interval, ...]] = [(iv,) for iv in reversed(starts[1])]
    while stack:
        d = stack.pop()
        j = d[-1][1]
        if j == n:
            done.append(d)
        else:
            stack.extend(d + (iv,) for iv in reversed(starts[j + 1]))
    return tuple(BlockDecomposition(g, parts) for parts in sorted(done))


def embeddings_for(d: BlockDecomposition, target: Permutation) -> tuple[Embedding, ...]:
    """Embeddings of d.source into target that realize decomposition d.

    One embedding per occurrence of d's skeleton in the target; none when d
    has more parts than the target has positions.
    """
    m = len(d)
    n = len(target)
    if m > n:
        return ()
    out = []
    for occ in sorted(occurrences(target, d.skeleton())):
        assignment: list[Interval | None] = [None] * n
        for k, pos in enumerate(occ):
            assignment[pos - 1] = d.parts[k]
        out.append(Embedding(d.source, target, tuple(assignment)))
    return tuple(out)


@lru_cache(maxsize=1 << 16)
def all_embeddings(g: Permutation, target: Permutation) -> tuple[Embedding, ...]:
    """All embeddings of g into target, canonically ordered and duplicate-free.

    Decompositions with more parts than |target| are discarded before the
    skeleton search since they can never be realized.
    """
    if len(g) == 0 or len(target) == 0:
        raise InvalidInputError("embeddings require non-empty permutations")
    seen: dict[tuple[Interval | None, ...], Embedding] = {}
    for d in block_decompositions(g):
        if len(d) > len(target):
            continue
        for emb in embeddings_for(d, target):
            seen.setdefault(emb.assignment, emb)
    return tuple(sorted(seen.values(), key=Embedding.sort_token))
