"""Uniform random sampling of class members from a specification.

The recursive method: every probabilistic choice is weighted by exact counts,
so the output distribution at each size is exactly uniform.  Choices are made
by integer thresholds against a caller-supplied source of uniform integers
(random.Random works); no floating point enters the probability path.
The tables are the counting pass's own output: the counts, and every term's
prefix products, which weight the split of a term's size among its children
drawn right to left.  A prefix product is one list per distinct ordered
child tuple, shared by every term that begins with those children.  Tables
are read-only after build and safe to share between samplers.

A draw is one walk down the derivation, children left to right.  Every node
knows the positions and values it will occupy in the output: its first
position follows from the sizes of its left siblings and its value offset
from the sizes of the siblings at smaller root values.  An atom writes its
value in place, so the derivation tree is never stored and the only
permutation built is the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .counting import _solve
from .errors import InvalidInputError, SampleError
from .oracle import member_of_restriction
from .perms import Permutation, decompose, inflation_offsets
from .restrictions import Restriction, RestrictionTerm
from .system import EquationSystem


class IntegerSource(Protocol):
    def randrange(self, bound: int) -> int: ...


@dataclass(frozen=True)
class SamplingTables:
    system: EquationSystem
    limit: int
    counts: dict[Restriction, list[int]]
    # prefixes[lhs][i][j][s] counts inflations of children 0..j of the
    # equation's i-th term with total size s; the last entry is the term's
    # weight series.  Entry j >= 1 is the one list of the child tuple
    # children[:j+1], shared with every term that starts with it, so read-only
    prefixes: dict[Restriction, list[list[list[int]]]]


def build_tables(spec: EquationSystem, limit: int) -> SamplingTables:
    """Counts plus every term's prefix products, up to the size limit, from
    one counting pass."""
    if limit < 1:
        raise InvalidInputError("size limit must be at least 1")
    counts, prefixes = _solve(spec, limit)
    return SamplingTables(spec, limit, counts, prefixes)


def sample(tables: SamplingTables, n: int, rng: IntegerSource) -> Permutation:
    """One permutation drawn uniformly among the class's size-n members."""
    if not 1 <= n <= tables.limit:
        raise InvalidInputError(f"size {n} outside table range 1..{tables.limit}")
    if tables.counts[tables.system.root][n] == 0:
        raise SampleError(f"the class has no permutation of size {n}")
    values = [0] * n
    # (restriction, size, first position, value offset) of each pending node
    stack = [(tables.system.root, n, 0, 0)]
    while stack:
        key, size, pos, offset = stack.pop()
        eq = tables.system.equations[key]
        r = rng.randrange(tables.counts[key][size])
        if eq.has_one and size == 1:
            if r < 1:
                values[pos] = offset + 1
                continue
            r -= 1
        for t, prefix in zip(eq.terms, tables.prefixes[key]):
            w = prefix[-1][size]
            if r < w:
                sizes = _draw_sizes(tables.counts, t, prefix, size, rng)
                children = []
                for child, s, o in zip(t.children, sizes, inflation_offsets(t.root, sizes)):
                    children.append((child, s, pos, offset + o))
                    pos += s
                stack.extend(reversed(children))
                break
            r -= w
        else:
            raise AssertionError("counts admitted a size with no derivation")
    return Permutation(tuple(values))


def _draw_sizes(
    counts: dict[Restriction, list[int]],
    t: RestrictionTerm,
    prefix: list[list[int]],
    n: int,
    rng: IntegerSource,
) -> list[int]:
    """Child sizes right to left: child j takes size m with weight
    c_j[m] * prefix[j-1][rem-m], scanned by the prefix's size rem-m
    ascending; child 0 takes what remains."""
    k = len(t.children)
    sizes = [0] * k
    rem = n
    for j in range(k - 1, 0, -1):
        cj = counts[t.children[j]]
        before = prefix[j - 1]
        r = rng.randrange(prefix[j][rem])
        # children 0..j-1 take at least one position each
        for s in range(j, rem):
            w = before[s] * cj[rem - s]
            if r < w:
                break
            r -= w
        else:
            raise AssertionError("size weights exhausted before the threshold")
        sizes[j] = rem - s
        rem = s
    sizes[0] = rem
    return sizes


def sample_many(tables: SamplingTables, n: int, count: int, rng: IntegerSource) -> list[Permutation]:
    return [sample(tables, n, rng) for _ in range(count)]


def heatmap(tables: SamplingTables, n: int, count: int, rng: IntegerSource) -> list[list[int]]:
    """Matrix H with H[x][y] = number of samples whose value at position
    x+1 is y+1; every row and column sums to the sample count."""
    grid = [[0] * n for _ in range(n)]
    for _ in range(count):
        for x, y in enumerate(sample(tables, n, rng).values):
            grid[x][y - 1] += 1
    return grid


def derivation_probability(
    tables: SamplingTables, sigma: Permutation, key: Restriction | None = None
) -> Fraction:
    """Exact probability that sampling at |sigma| outputs sigma.

    Disjointness makes derivations unique, so this walks the one derivation
    and multiplies the branch probabilities in rational arithmetic; a uniform
    sampler returns 1/c_n for every member.  Verification-grade: the walk
    re-checks child memberships by pattern containment, so keep sigma small
    (the brute-force searches stop being cheap past size about 10).
    """
    if key is None:
        key = tables.system.root
    n = len(sigma)
    total = tables.counts[key][n]
    if total == 0:
        raise SampleError(f"{sigma} is not derivable from {key}")
    eq = tables.system.equations[key]
    if n == 1:
        if not eq.has_one:
            raise SampleError(f"{key} has no size-1 atom")
        return Fraction(1, total)
    root, kids = decompose(sigma)
    matches = [
        t
        for t in eq.terms
        if t.root == root
        and all(
            member_of_restriction(kid, child, tables.system.simples)
            for kid, child in zip(kids, t.children)
        )
    ]
    if len(matches) != 1:
        raise SampleError(
            f"{sigma} has {len(matches)} derivations under {key}; expected exactly 1"
        )
    prob = Fraction(1, total)
    for kid, child in zip(kids, matches[0].children):
        prob *= tables.counts[child][len(kid)]
        prob *= derivation_probability(tables, kid, child)
    return prob
