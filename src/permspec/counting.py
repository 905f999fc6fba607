"""From a specification to its counting sequence and its draw plan.

A disjoint system is itself a positive algebraic system for the ordinary
generating functions: the atom is z, a term is the product of its children's
series, a union is a sum.  It is solved as a truncated-series fixed point
evaluated in size order: every term has at least two children of positive
valuation, so each coefficient depends only on strictly smaller ones and a
single size-major sweep is exact.  The sweep keeps, for every term, the
series of the products of its first j children; the last one is the term's
own series, and the sampler reuses all of them to split sizes among
children.  A prefix product is named by its ordered child tuple, and terms
of different equations often begin with the same children, so each distinct
product is one series, computed once per size and shared by every term that
starts with it (the recursive method's binary products, Flajolet, Zimmermann
& Van Cutsem 1994).  All arithmetic is arbitrary-precision integer.

The sweep reads its series from the draw plan, which it returns with the
counts.  The plan numbers the equations from 0 (the root) and holds, per
equation, its count series, whether it has the atom, and its terms; per
term, its weight series, its children's numbers, its prefix rows (row 0 is
the first child's counts, row j >= 1 the one series of the children 0..j,
the last row the weight series), its children's count lists, and its child
positions in increasing root value.  Every series in the plan is the very
list held in the counts or shared between prefixes, never copied, so a draw
looks up no restriction; all of them are read-only once the sweep returns.
"""

from __future__ import annotations

import operator

from .errors import InvalidInputError, NonDisjointSystemError
from .restrictions import Restriction, restriction
from .system import EquationSystem, SimpleSet, closure_equation

# One term of the plan: (weight series, child numbers, prefix rows, child
# count lists, child positions in increasing root value).
PlanTerm = tuple[
    list[int], tuple[int, ...], list[list[int]], tuple[list[int], ...], tuple[int, ...]
]
# One equation of the plan: (count series, has the atom, terms).
PlanEquation = tuple[list[int], bool, tuple[PlanTerm, ...]]


def coefficients(spec: EquationSystem, order: int) -> dict[Restriction, list[int]]:
    """Exact counts c[0..order] for every restriction of the system."""
    if order < 1:
        raise InvalidInputError("order must be at least 1")
    return _solve(spec, order)[0]


def _solve(
    spec: EquationSystem, order: int
) -> tuple[dict[Restriction, list[int]], tuple[PlanEquation, ...]]:
    """Counts c[0..order] per restriction, in the system's order, and the
    draw plan over the same lists.

    Size-major evaluation of the fixed point: when size n is processed, every
    product only reads coefficients of sizes below n, which are final.
    """
    if not spec.all_disjoint:
        raise NonDisjointSystemError(
            "system has ambiguous unions; its term sums would overcount"
        )
    counts = {lhs: [0] * (order + 1) for lhs in spec.equations}
    keys = [spec.root] + [k for k in spec.equations if k != spec.root]
    number = {k: i for i, k in enumerate(keys)}
    shared: dict[tuple[Restriction, ...], list[int]] = {}
    # (series, left factor, right factor's counts), each distinct product once
    steps: list[tuple[list[int], list[int], list[int]]] = []
    plan = []
    for key in keys:
        eq = spec.equations[key]
        terms = []
        for t in eq.terms:
            kids = t.children
            rows = [counts[kids[0]]]
            for j in range(1, len(kids)):
                prefix = kids[: j + 1]
                series = shared.get(prefix)
                if series is None:
                    series = shared[prefix] = [0] * (order + 1)
                    steps.append((series, rows[-1], counts[kids[j]]))
                rows.append(series)
            terms.append(
                (
                    rows[-1],
                    tuple(number[c] for c in kids),
                    rows,
                    tuple(counts[c] for c in kids),
                    tuple(sorted(range(len(kids)), key=t.root.values.__getitem__)),
                )
            )
        plan.append((counts[key], eq.has_one, tuple(terms)))
    mul = operator.mul
    for n in range(1, order + 1):
        for series, left, right in steps:
            series[n] = sum(map(mul, left[n - 1 : 0 : -1], right[1:n]))
        for total, has_one, terms in plan:
            total[n] = (1 if has_one and n == 1 else 0) + sum(t[0][n] for t in terms)
    for lhs, arr in counts.items():
        if arr[0] != 0 or arr[1] not in (0, 1):
            raise AssertionError(f"count table for {lhs} violates c0=0, c1<=1")
    return counts, tuple(plan)


def class_counts(spec: EquationSystem, order: int) -> list[int]:
    """Counting sequence of the class itself, c[0..order]."""
    return coefficients(spec, order)[spec.root]


def substitution_closed_spec(simples: SimpleSet) -> EquationSystem:
    """The three-equation specification of a substitution-closed class."""
    system = EquationSystem(simples.simples, restriction(""))
    for delta in ("", "+", "-"):
        eq = closure_equation(delta, simples)
        system.equations[eq.lhs] = eq
    return system


def convolve(a: list[int], b: list[int], order: int) -> list[int]:
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def quadratic_residual(simples: SimpleSet, order: int) -> list[int]:
    """Truncated residual of the closed quadratic satisfied by the counting
    series C(z) of a substitution-closed class:

        C^2 + (S(C) - 1 + z) * C + S(C) + z

    where S collects one z^|p| per simple permutation p.  A correct series
    makes every coefficient through the order vanish.
    """
    c = class_counts(substitution_closed_spec(simples), order)
    s_by_size: dict[int, int] = {}
    for p in simples.simples:
        s_by_size[len(p)] = s_by_size.get(len(p), 0) + 1
    s_of_c = [0] * (order + 1)
    power = [0] * (order + 1)
    power[0] = 1
    for m in range(1, max(s_by_size, default=0) + 1):
        power = convolve(power, c, order)
        mult = s_by_size.get(m, 0)
        if mult:
            for i in range(order + 1):
                s_of_c[i] += mult * power[i]
    residual = convolve(c, c, order)
    linear = list(s_of_c)
    linear[0] -= 1
    if order >= 1:
        linear[1] += 1
    for i, v in enumerate(convolve(linear, c, order)):
        residual[i] += v
    for i in range(order + 1):
        residual[i] += s_of_c[i]
    if order >= 1:
        residual[1] += 1
    return residual
