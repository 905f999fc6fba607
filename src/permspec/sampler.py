"""Uniform random sampling of class members from a specification.

The recursive method: every probabilistic choice is weighted by exact counts,
so the output distribution at each size is exactly uniform.  Choices are made
by integer thresholds against a caller-supplied source of uniform integers
(random.Random works); no floating point enters the probability path.
The tables are the counting pass's own output: the counts, and every term's
prefix products, which weight the split of a term's size among its children
drawn right to left.  Tables are immutable after build and safe to share
between samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .counting import _solve
from .errors import InvalidInputError, SampleError
from .oracle import member_of_restriction
from .perms import ONE, Permutation, decompose, substitute
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
    # weight series
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
    root_node = _Node(tables.system.root, n)
    stack = [root_node]
    while stack:
        node = stack.pop()
        eq = tables.system.equations[node.key]
        r = rng.randrange(tables.counts[node.key][node.size])
        if eq.has_one and node.size == 1:
            if r < 1:
                continue
            r -= 1
        for t, prefix in zip(eq.terms, tables.prefixes[node.key]):
            w = prefix[-1][node.size]
            if r < w:
                sizes = _draw_sizes(tables.counts, t, prefix, node.size, rng)
                node.root = t.root
                node.children = [_Node(child, s) for child, s in zip(t.children, sizes)]
                stack.extend(reversed(node.children))
                break
            r -= w
        else:
            raise AssertionError("counts admitted a size with no derivation")
    return _assemble(root_node)


class _Node:
    __slots__ = ("key", "size", "root", "children")

    def __init__(self, key: Restriction, size: int):
        self.key = key
        self.size = size
        self.root: Permutation | None = None
        self.children: list[_Node] = []


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


def _assemble(root: _Node) -> Permutation:
    """Iterative post-order reconstruction through substitution."""
    values: dict[int, Permutation] = {}
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not node.children:
            values[id(node)] = ONE
        elif expanded:
            assert node.root is not None
            values[id(node)] = substitute(
                node.root, [values[id(c)] for c in node.children]
            )
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return values[id(root)]


def sample_many(tables: SamplingTables, n: int, count: int, rng: IntegerSource) -> list[Permutation]:
    return [sample(tables, n, rng) for _ in range(count)]


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
