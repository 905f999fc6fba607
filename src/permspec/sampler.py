"""Uniform random sampling of class members from a specification.

The recursive method: every probabilistic choice is weighted by exact counts,
so the output distribution at each size is exactly uniform.  Choices are made
by integer thresholds against a caller-supplied source of uniform integers
(random.Random works); no floating point enters the probability path.
The tables are the counting pass's own output: the counts, and the draw
plan described in `counting`, whose prefix products weight the split of a
term's size among its children, drawn right to left.  Tables are read-only
after build and safe to share between samplers.

A draw is one walk down the derivation, children left to right.  Every node
knows the positions and values it will occupy in the output: its first
position follows from the sizes of its left siblings and its value offset
from the sizes of the siblings at smaller root values.  An atom writes its
value in place, so the derivation tree is never stored and the only
permutation built is the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Protocol

from .counting import PlanEquation, _solve
from .errors import InvalidInputError, SampleError
from .perms import Permutation, decompose
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


def sample(tables: SamplingTables, n: int, rng: IntegerSource) -> Permutation:
    """One permutation drawn uniformly among the class's size-n members."""
    _check_size(tables, n)
    plan = tables.plan
    if plan[0][0][n] == 0:
        raise SampleError(f"the class has no permutation of size {n}")
    randrange = rng.randrange
    values = [0] * n
    # (equation number, size, first position, value offset) of each pending node
    stack = [(0, n, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        i, size, pos, offset = pop()
        total, has_one, terms = plan[i]
        r = randrange(total[size])
        if has_one and size == 1:
            if r < 1:
                values[pos] = offset + 1
                continue
            r -= 1
        for weight, kids, rows, kid_counts, order in terms:
            w = weight[size]
            if r < w:
                break
            r -= w
        else:
            raise AssertionError("counts admitted a size with no derivation")
        # child sizes right to left: child j takes size m with weight
        # c_j[m] * rows[j-1][rem-m], scanned by the prefix's size rem-m
        # ascending; child 0 takes what remains
        k = len(kids)
        if k == 2:
            # the loop below for one split, unrolled: most nodes are
            # two-child terms, and the threshold's bound rows[1][size] is w
            left, right = kid_counts
            r = randrange(w)
            for s in range(1, size):
                x = left[s] * right[size - s]
                if r < x:
                    break
                r -= x
            else:
                raise AssertionError("size weights exhausted before the threshold")
            if order[0] == 0:
                push((kids[1], size - s, pos + s, offset + s))
                push((kids[0], s, pos, offset))
            else:
                push((kids[1], size - s, pos + s, offset))
                push((kids[0], s, pos, offset + size - s))
            continue
        sizes = [0] * k
        rem = size
        for j in range(k - 1, 0, -1):
            cj = kid_counts[j]
            before = rows[j - 1]
            r = randrange(rows[j][rem])
            # children 0..j-1 take at least one position each
            for s in range(j, rem):
                x = before[s] * cj[rem - s]
                if r < x:
                    break
                r -= x
            else:
                raise AssertionError("size weights exhausted before the threshold")
            sizes[j] = rem - s
            rem = s
        sizes[0] = rem
        offsets = [0] * k
        for c in order:
            offsets[c] = offset
            offset += sizes[c]
        pos += size
        for c in range(k - 1, -1, -1):
            pos -= sizes[c]
            push((kids[c], sizes[c], pos, offsets[c]))
    return Permutation(tuple(values))


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


def derivation_probability(
    tables: SamplingTables, sigma: Permutation, key: Restriction | None = None
) -> Fraction:
    """Exact probability that sampling at |sigma| from key (the class by
    default) outputs sigma: its number of derivations over c_n.

    One bottom-up walk over sigma's decomposition tree counts, for every node
    and every equation, the derivations of the node's permutation from that
    equation: the atom at size 1, plus, for each term whose root is the
    node's root, the product of its children's counts.  A disjoint system
    gives every member exactly one derivation, so a uniform sampler returns
    1/c_n for each; a permutation with none is refused.
    """
    n = len(sigma)
    _check_size(tables, n)
    system = tables.system
    key = system.root if key is None else key
    number = {k: i for i, k in enumerate(system.equations)}
    if key not in number:
        raise InvalidInputError(f"{key} has no equation in the system")
    atom = [int(eq.has_one) for eq in system.equations.values()]
    by_root: dict[Permutation, list[tuple[int, list[int]]]] = {}
    for i, eq in enumerate(system.equations.values()):
        for t in eq.terms:
            by_root.setdefault(t.root, []).append((i, [number[c] for c in t.children]))
    # the tree breadth first, so children follow their parent: per node its
    # root (None at a leaf) and the index of its first child
    nodes: list[Permutation | None] = [sigma]
    tree = []
    for v, p in enumerate(nodes):
        nodes[v] = None  # appending while iterating is safe; the block is done
        root, kids = decompose(p) if len(p) > 1 else (None, ())
        tree.append((root, len(nodes)))
        nodes.extend(kids)
    derivations = [atom] * len(tree)
    for v in range(len(tree) - 1, -1, -1):
        root, base = tree[v]
        if root is not None:
            derivations[v] = out = [0] * len(atom)
            for i, children in by_root.get(root, ()):
                out[i] += prod(derivations[base + j][c] for j, c in enumerate(children))
    d = derivations[0][number[key]]
    if d == 0:
        raise SampleError(f"{sigma} is not derivable from {key}")
    return Fraction(d, tables.counts[key][n])
