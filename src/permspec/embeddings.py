"""Embeddings of a permutation into the root of an inflation.

An embedding of g into a root p gives every position of p a block of g:
the pattern of a (possibly empty) interval of g, such that the non-empty
intervals tile 1..|g| from left to right and the generalized substitution of
the blocks into p rebuilds g.  Embeddings record every way an occurrence of g
can spread over the children of a permutation whose decomposition root is p,
and the construction only ever reads the block each one puts on each child,
so an embedding is just that tuple of |p| blocks, EMPTY where it assigns
nothing.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidInputError
from .perms import EMPTY, Interval, Permutation, intervals_from, normalize, occurrences, pattern_at


@lru_cache(maxsize=1 << 16)
def all_embeddings(g: Permutation, root: Permutation) -> tuple[tuple[Permutation, ...], ...]:
    """All embeddings of g into root, each a tuple of len(root) blocks.

    One walk over the cuts of g into consecutive intervals with at most
    len(root) parts; each cut yields one embedding per occurrence of its
    skeleton (one value per part) in root.  Distinct (cut, occurrence) pairs
    give distinct block tuples, since the block sizes fix the intervals.  The
    order is canonical: by the intervals assigned to the positions of root,
    with none read as (0, 0).
    """
    n, m = len(g), len(root)
    if n == 0 or m == 0:
        raise InvalidInputError("embeddings require non-empty permutations")
    starts = {i: intervals_from(g, i) for i in range(1, n + 1)}
    found: list[tuple[tuple[Interval, ...], tuple[Permutation, ...]]] = []
    stack: list[tuple[Interval, ...]] = [(iv,) for iv in starts[1]]
    while stack:
        cut = stack.pop()
        j = cut[-1][1]
        if j < n:
            if len(cut) < m:
                stack.extend(cut + (iv,) for iv in starts[j + 1])
            continue
        skeleton = normalize([g.values[i - 1] for (i, _) in cut])
        blocks = [pattern_at(g, iv) for iv in cut]
        for occ in occurrences(root, skeleton):
            token = [(0, 0)] * m
            emb = [EMPTY] * m
            for iv, block, pos in zip(cut, blocks, occ):
                token[pos - 1] = iv
                emb[pos - 1] = block
            found.append((tuple(token), tuple(emb)))
    found.sort(key=lambda te: te[0])
    return tuple(emb for _, emb in found)
