"""Uniform random sampling of class members from a specification, by
unranking.

The recursive method as a bijection (Flajolet, Zimmermann & Van Cutsem
1994; Martinez & Molinero 2001): `unrank` maps each rank in [0, c_n) to a
distinct size-n member and `rank` is its inverse, so `sample` is the member
of rank randrange(c_n), one integer from a caller-supplied source of
uniform integers (random.Random works) per draw, and exactly uniform.  All
arithmetic is integer.  The tables are the counting pass's own output: the
counts, and the draw plan described in `counting`, whose prefix products
weight the split of a term's size among its children.  Tables are read-only
after build and safe to share between samplers.

A rank r at a node first picks the atom or a term by the cumulative weights
of the node's equation; what is left of r is below the term's weight.
Child sizes are then chosen right to left, each split scanning the sizes
from both ends in alternation (lo, hi, lo+1, hi-1, ...), which bounds the
scanning of a whole draw by O(n log n); the chosen split's weight is a
product of two counts, and its mixed radix gives the chosen child's rank
and the rank left for the children before it.

Unranking is one walk down the derivation.  Every node knows the positions
and values it will occupy in the output: its first position follows from
the sizes of its left siblings and its value offset from the sizes of the
siblings at smaller root values.  A child of size 1 is the atom and writes
its value in place, so the derivation tree is never stored and the only
permutation built is the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Protocol

from .counting import PlanEquation, _solve
from .errors import InvalidInputError, SampleError
from .perms import Permutation, decomposition_tree
from .restrictions import Restriction
from .system import EquationSystem


class IntegerSource(Protocol):
    def randrange(self, bound: int) -> int: ...


@dataclass(frozen=True)
class SamplingTables:
    system: EquationSystem
    limit: int
    counts: dict[Restriction, list[int]]
    # the counting pass's draw plan, root equation first, over the lists
    # of `counts`; all of them are read-only
    plan: tuple[PlanEquation, ...] = field(repr=False, compare=False)


def build_tables(spec: EquationSystem, limit: int) -> SamplingTables:
    """Counts and the draw plan, up to the size limit, from one counting
    pass."""
    if limit < 1:
        raise InvalidInputError("size limit must be at least 1")
    return SamplingTables(spec, limit, *_solve(spec, limit))


def _check_size(tables: SamplingTables, n: int) -> None:
    if not 1 <= n <= tables.limit:
        raise InvalidInputError(f"size {n} outside table range 1..{tables.limit}")


def _check_count(count: int) -> None:
    if count < 0:
        raise InvalidInputError(f"sample count must be non-negative, got {count}")


def _class_count(tables: SamplingTables, n: int) -> int:
    """c_n, refusing a size outside the tables or without members."""
    _check_size(tables, n)
    count = tables.plan[0][0][n]
    if count == 0:
        raise SampleError(f"the class has no permutation of size {n}")
    return count


def sample(tables: SamplingTables, n: int, rng: IntegerSource) -> Permutation:
    """One permutation drawn uniformly among the class's size-n members: the
    member of a uniform rank, one call to the source."""
    return _unrank(tables.plan, n, rng.randrange(_class_count(tables, n)))


def unrank(tables: SamplingTables, n: int, rank: int) -> Permutation:
    """The size-n member of the given rank in [0, c_n); distinct ranks give
    distinct members, so the ranks enumerate the class at size n."""
    count = _class_count(tables, n)
    if not 0 <= rank < count:
        raise InvalidInputError(f"rank {rank} outside 0..{count - 1} at size {n}")
    return _unrank(tables.plan, n, rank)


def _unrank(plan: tuple[PlanEquation, ...], n: int, rank: int) -> Permutation:
    if n == 1:
        return Permutation((1,))  # only the atom has size 1
    values = [0] * n
    # (equation number, size, first position, value offset, rank) of each
    # pending node; a node of size 1 is the atom and is written, not pushed
    stack = [(0, n, 0, 0, rank)]
    pop, push = stack.pop, stack.append
    while stack:
        i, size, pos, offset, r = pop()
        for weight, kids, rows, kid_counts, order in plan[i][2]:
            w = weight[size]
            if r < w:
                break
            r -= w
        else:
            raise AssertionError("rank beyond the term weights")
        # r < w is the threshold of the first split.  Right to left, child j
        # takes size rem-s with weight c_j[rem-s] * rows[j-1][s], s scanned
        # from both ends; divmod by c_j[rem-s] splits what is left of r into
        # child j's rank and the threshold for children 0..j-1
        k = len(kids)
        if k == 2:
            # the loop below for one split, unrolled: most nodes are
            # two-child terms
            left, right = kid_counts
            lo, hi = 1, size - 1
            while lo <= hi:
                x = left[lo] * right[size - lo]
                if r < x:
                    s = lo
                    break
                r -= x
                x = left[hi] * right[size - hi]
                if r < x:
                    s = hi
                    break
                r -= x
                lo += 1
                hi -= 1
            else:
                raise AssertionError("size weights exhausted before the threshold")
            m = size - s
            r, r1 = divmod(r, right[m])
            if order[0] == 0:
                o0, o1 = offset, offset + s
            else:
                o0, o1 = offset + m, offset
            if m == 1:
                values[pos + s] = o1 + 1
            else:
                push((kids[1], m, pos + s, o1, r1))
            if s == 1:
                values[pos] = o0 + 1
            else:
                push((kids[0], s, pos, o0, r))
            continue
        sizes = [0] * k
        ranks = [0] * k
        rem = size
        for j in range(k - 1, 0, -1):
            before, cj = rows[j - 1], kid_counts[j]
            # children 0..j-1 take at least one position each
            lo, hi = j, rem - 1
            while lo <= hi:
                x = before[lo] * cj[rem - lo]
                if r < x:
                    s = lo
                    break
                r -= x
                x = before[hi] * cj[rem - hi]
                if r < x:
                    s = hi
                    break
                r -= x
                lo += 1
                hi -= 1
            else:
                raise AssertionError("size weights exhausted before the threshold")
            sizes[j] = rem - s
            r, ranks[j] = divmod(r, cj[rem - s])
            rem = s
        sizes[0], ranks[0] = rem, r
        offsets = [0] * k
        for c in order:
            offsets[c] = offset
            offset += sizes[c]
        pos += size
        for c in range(k - 1, -1, -1):
            pos -= sizes[c]
            if sizes[c] == 1:
                values[pos] = offsets[c] + 1
            else:
                push((kids[c], sizes[c], pos, offsets[c], ranks[c]))
    # every position and every value is written once, so the check that
    # Permutation(values) would make (a sort of the n values) is skipped
    return tuple.__new__(Permutation, values)


def sample_many(tables: SamplingTables, n: int, count: int, rng: IntegerSource) -> list[Permutation]:
    _check_count(count)
    return [sample(tables, n, rng) for _ in range(count)]


def heatmap(tables: SamplingTables, n: int, count: int, rng: IntegerSource) -> list[list[int]]:
    """Matrix H with H[x][y] = number of samples whose value at position
    x+1 is y+1; every row and column sums to the sample count."""
    _check_size(tables, n)
    _check_count(count)
    grid = [[0] * n for _ in range(n)]
    for _ in range(count):
        for x, y in enumerate(sample(tables, n, rng).values):
            grid[x][y - 1] += 1
    return grid


def _parse(tables: SamplingTables, sigma: Permutation) -> tuple[list, list[list[int]]]:
    """sigma's decomposition tree against the plan, and per node its number
    of derivations from every equation.

    The tree is `decomposition_tree(sigma)` with each root replaced by the
    plan's terms (equation number, term number, child numbers) that have
    that root.  One bottom-up walk counts, per node and equation, the atom at
    size 1 plus, for each such term, the product of its children's counts.
    """
    _check_size(tables, len(sigma))
    plan = tables.plan
    by_root: dict[Permutation, list[tuple[int, int, tuple[int, ...]]]] = {}
    for i, (_, _, terms) in enumerate(plan):
        for t, (_, kids, _, _, order) in enumerate(terms):
            root = [0] * len(order)
            for value, c in enumerate(order, 1):
                root[c] = value
            by_root.setdefault(Permutation(root), []).append((i, t, kids))
    tree = [(size, by_root.get(root, ()), base) for size, root, base in decomposition_tree(sigma)]
    atom = [int(has_one) for _, has_one, _ in plan]
    derivations = [atom] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        size, candidates, base = tree[v]
        if size > 1:
            derivations[v] = out = [0] * len(plan)
            for i, _, kids in candidates:
                out[i] += prod(derivations[base + j][c] for j, c in enumerate(kids))
    return tree, derivations


def derivation_probability(tables: SamplingTables, sigma: Permutation) -> Fraction:
    """Exact probability that sampling at |sigma| outputs sigma: its number
    of derivations from the class's equation over c_n.

    A disjoint system gives every member exactly one derivation, so a uniform
    sampler returns 1/c_n for each; a permutation with none is refused.
    """
    d = _parse(tables, sigma)[1][0][0]
    if d == 0:
        raise SampleError(f"{sigma} is not derivable from {tables.system.root}")
    return Fraction(d, tables.plan[0][0][len(sigma)])


def rank(tables: SamplingTables, sigma: Permutation) -> int:
    """The rank of sigma among the class's members of its size, the inverse
    of `unrank`: the atom or term offset of every node of its derivation,
    its split offset in the order `unrank` scans, and the mixed-radix
    combination of its children's ranks."""
    tree, derivations = _parse(tables, sigma)
    if derivations[0][0] == 0:
        raise SampleError(f"{sigma} is not a member of the class")
    plan = tables.plan
    # top down, the equation of every node and the one term deriving it
    eqs = [0] * len(tree)
    chosen: list[int | None] = [None] * len(tree)
    for v, (_, candidates, base) in enumerate(tree):
        for i, t, kids in candidates:
            if i == eqs[v] and all(derivations[base + j][c] for j, c in enumerate(kids)):
                chosen[v] = t
                eqs[base : base + len(kids)] = kids
                break
    # bottom up, the ranks; a node of size 1 is the atom, rank 0
    ranks = [0] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        t = chosen[v]
        if t is None:
            continue
        size, _, base = tree[v]
        terms = plan[eqs[v]][2]
        _, kids, rows, kid_counts, _ = terms[t]
        r, rem = ranks[base], tree[base][0]
        for j in range(1, len(kids)):
            m = tree[base + j][0]
            s, rem = rem, rem + m
            skipped = _split_offset(rows[j - 1], kid_counts[j], rem, j, s)
            r = skipped + r * kid_counts[j][m] + ranks[base + j]
        ranks[v] = sum(u[0][size] for u in terms[:t]) + r
    return ranks[0]


def _split_offset(before: list[int], after: list[int], rem: int, lo: int, s: int) -> int:
    """Total weight before[x] * after[rem-x] of the splits x that `unrank`
    scans before s, in its order lo, hi, lo+1, hi-1, ... with hi = rem-1."""
    hi = rem - 1
    skipped = 0
    while lo != s:
        skipped += before[lo] * after[rem - lo]
        if hi == s:
            break
        skipped += before[hi] * after[rem - hi]
        lo += 1
        hi -= 1
    return skipped
