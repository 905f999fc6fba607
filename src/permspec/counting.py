"""From a specification to its counting sequence.

A disjoint system translates directly to equations on ordinary generating
functions: the atom becomes z, a term becomes the product of its children's
series, a union becomes a sum.  The resulting positive system is solved as a
truncated-series fixed point evaluated in size order: every term has at least
two children of positive valuation, so each coefficient depends only on
strictly smaller ones and a single size-major sweep is exact.  The sweep
keeps, for every term, the series of the products of its first j children;
the last one is the term's own series, and the sampler reuses all of them to
split sizes among children.  A prefix product is named by its ordered child
tuple, and terms of different equations often begin with the same children,
so each distinct product is one series, computed once per size and shared by
every term that starts with it (the recursive method's binary products,
Flajolet, Zimmermann & Van Cutsem 1994).  The shared lists are read-only
once the sweep returns.  All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InvalidInputError, NonDisjointSystemError
from .restrictions import Restriction, restriction
from .system import EquationSystem, SimpleSet, closure_equation


@dataclass(frozen=True)
class GFEquation:
    lhs: Restriction
    has_one: bool
    terms: tuple[tuple[Restriction, ...], ...]


@dataclass(frozen=True)
class GFSystem:
    root: Restriction
    equations: tuple[GFEquation, ...]

    def equation_strings(self) -> list[str]:
        def name(r: Restriction) -> str:
            return f"F[{r}]"

        out = []
        for eq in self.equations:
            parts = (["z"] if eq.has_one else []) + [
                " * ".join(name(c) for c in t) for t in eq.terms
            ]
            out.append(f"{name(eq.lhs)} = {' + '.join(parts) if parts else '0'}")
        return out


def to_gf_system(spec: EquationSystem) -> GFSystem:
    """Translate a disjoint equation system into its generating-function system."""
    if not spec.all_disjoint:
        raise NonDisjointSystemError(
            "system has ambiguous unions; its term sums would overcount"
        )
    eqs = []
    for lhs, eq in spec.equations.items():
        for t in eq.terms:
            if len(t.children) < 2:
                raise InvalidInputError("term with fewer than two children")
        eqs.append(GFEquation(lhs, eq.has_one, tuple(t.children for t in eq.terms)))
    return GFSystem(spec.root, tuple(eqs))


def coefficients(spec: EquationSystem, order: int) -> dict[Restriction, list[int]]:
    """Exact counts c[0..order] for every restriction of the system."""
    if order < 1:
        raise InvalidInputError("order must be at least 1")
    return _solve(spec, order)[0]


def _solve(
    spec: EquationSystem, order: int
) -> tuple[dict[Restriction, list[int]], dict[Restriction, list[list[list[int]]]]]:
    """Counts c[0..order] per restriction, and per equation the prefix
    products of its terms: prefixes[lhs][i][j][n] counts the inflations of
    children 0..j of the i-th term with total size n, so entry 0 is the first
    child's counts and the last entry is the term's series.

    Entry j >= 1 is the one series of the child tuple t[:j+1]: terms that
    share a prefix hold the same list object, so callers must not mutate it.

    Size-major evaluation of the fixed point: when size n is processed, every
    product only reads coefficients of sizes below n, which are final.
    """
    gf = to_gf_system(spec)
    counts: dict[Restriction, list[int]] = {
        eq.lhs: [0] * (order + 1) for eq in gf.equations
    }
    shared: dict[tuple[Restriction, ...], list[int]] = {}
    # (series, left factor, right factor's counts), each distinct product once
    steps: list[tuple[list[int], list[int], list[int]]] = []
    prefixes: dict[Restriction, list[list[list[int]]]] = {}
    for eq in gf.equations:
        rows = []
        for t in eq.terms:
            row = [counts[t[0]]]
            for j in range(1, len(t)):
                key = t[: j + 1]
                series = shared.get(key)
                if series is None:
                    series = shared[key] = [0] * (order + 1)
                    steps.append((series, row[-1], counts[t[j]]))
                row.append(series)
            rows.append(row)
        prefixes[eq.lhs] = rows
    sums = [
        (counts[eq.lhs], eq.has_one, [row[-1] for row in prefixes[eq.lhs]])
        for eq in gf.equations
    ]
    mul = operator.mul
    for n in range(1, order + 1):
        for series, left, right in steps:
            series[n] = sum(map(mul, left[n - 1 : 0 : -1], right[1:n]))
        for arr, has_one, term_series in sums:
            arr[n] = (1 if has_one and n == 1 else 0) + sum(s[n] for s in term_series)
    for lhs, arr in counts.items():
        if arr[0] != 0 or arr[1] not in (0, 1):
            raise AssertionError(f"count table for {lhs} violates c0=0, c1<=1")
    return counts, prefixes


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
