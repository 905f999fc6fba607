"""From a specification to its counting sequence and its draw plan.

A disjoint system is itself a positive algebraic system for the ordinary
generating functions: the atom is z, a term is the product of its children's
series, a union is a sum.  It is solved as a truncated-series fixed point
evaluated in size order: every term has at least two children of positive
valuation, so each coefficient depends only on strictly smaller ones.  The
sweep keeps, for every term, the series of the products of its first j
children; the last one is the term's own series, and the sampler reuses all
of them to split sizes among children (the recursive method's binary
products, Flajolet, Zimmermann & Van Cutsem 1994).

Many equations have equal series by construction, as the mirror images
C+ = z + minus[C-, C] and C- = z + plus[C+, C] of a substitution closure.
The sweep counts once per block of the coarsest stable partition of the
equations (Paige & Tarjan 1987): it starts from the atom flag and splits a
block until its equations have equal sorted multisets of terms, each term
the sorted tuple of its children's blocks.  By induction on the size, two
equations of one block have equal counts: at size n each is the atom plus,
per term, a product of its children's counts below n, and the children of
matching terms lie pairwise in one block.  So every equation of a block
holds the block's one list, and each product is one series per distinct
pair of factor series: a term's first product is keyed by the sorted pair
of its first two children's blocks, each later one by the previous key and
the next child's block.

Each product s = l * r takes one of two forms.  It starts in difference
form, re-fitted at each size n = 1, 2, 4, ..., 2T, T = 128, on the final
coefficients below n.  At size 2T it is tiled instead when even its
sparsest q (below) has more than T nonzero coefficients, as when both
factors grow exponentially.

Tiled, it is relaxed (van der Hoeven 2002): the pairs l[i] * r[n - i] with
i or n - i below T are summed at size n; every other pair lies in one
square tile of side m = T * 2^k at (m, b) or (a, m), a and b multiples of
m, added into s[a + b ..] at size a + b - 1, once its inputs are final.  A
tile is one exact `decimal` product of its two windows, each packed with
one zero-padded slot per coefficient: libmpdec multiplies large operands by
number-theoretic transform, Python ints by Karatsuba.  A slot holds the
bits of both factors, so packing pays only when both grow exponentially.

In difference form it rests on the identity a * b = (a * q) / (1 - z)^d with
q = (1 - z)^d * b, which holds for every pair of series and every d, so a
re-fit changes the cost, never a count.  The factor b and the order
d <= min(4, n - 1) are the ones whose q has the fewest nonzero coefficients
below the size n of the fit; a factor with a polynomial tail, such as a 0/1
series, has a q with a few.  At size n, (a * q)[n] is summed over q's
nonzero positions only, and d running sums, one big addition each, turn it
into s[n].  Once b[n] is final, q[n] joins the nonzero positions if it is
not 0, so a factor that leaves its early shape costs more terms, never a
wrong count.

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

import decimal
import math
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
    """Exact counts c[0..order] for every restriction of the system, one
    list of its own per restriction."""
    if order < 1:
        raise InvalidInputError("order must be at least 1")
    return {lhs: arr[:] for lhs, arr in _solve(spec, order)[0].items()}


def _solve(
    spec: EquationSystem, order: int
) -> tuple[dict[Restriction, list[int]], tuple[PlanEquation, ...]]:
    """Counts c[0..order] per restriction, in the system's order, one list
    per block of equal series, and the draw plan over the same lists.

    Size-major evaluation of the fixed point: when size n is processed, every
    product only reads coefficients of sizes below n, which are final.
    """
    if not spec.all_disjoint:
        raise NonDisjointSystemError(
            "system has ambiguous unions; its term sums would overcount"
        )
    block = _equal_series(spec)
    lists = [[0] * (order + 1) for _ in range(max(block.values()) + 1)]
    counts = {lhs: lists[block[lhs]] for lhs in spec.equations}
    keys = [spec.root] + [k for k in spec.equations if k != spec.root]
    number = {k: i for i, k in enumerate(keys)}
    shared: dict[tuple, list[int]] = {}
    # (series, left factor, right factor's counts), each distinct product once
    steps: list[tuple[list[int], list[int], list[int]]] = []
    plan, summed = [], {}  # one plan entry per block sums its total
    for key in keys:
        eq = spec.equations[key]
        terms = []
        for t in eq.terms:
            kids = t.children
            rows = [counts[kids[0]]]
            prefix: tuple = tuple(sorted(block[c] for c in kids[:2]))
            for j in range(1, len(kids)):
                if j > 1:
                    prefix = (prefix, block[kids[j]])
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
        summed.setdefault(block[key], plan[-1])
    mul = operator.mul
    tiled, differenced = [], []
    for n in range(1, order + 1):
        if n & (n - 1) == 0 and n <= 2 * _EDGE:
            # re-fit every form on the final coefficients below n; at 2T,
            # tile the products whose q keeps more than T nonzero terms
            differenced = []
            for series, left, right in steps:
                form = _difference_form(series, left, right, n)
                if n < 2 * _EDGE or len(form[4]) <= _EDGE:
                    differenced.append(form)
                else:
                    tiled.append((series, left, right, [0] * (order + 1)))
        if n % _EDGE == 0:
            for _, left, right, tiles in tiled:
                _add_tiles(tiles, left, right, n, order)
        for series, left, right, tiles in tiled:
            series[n] = (
                int(tiles[n])
                + sum(map(mul, left[1:_EDGE], right[n - 1 : n - _EDGE : -1]))
                + sum(map(mul, left[n - 1 : n - _EDGE : -1], right[1:_EDGE]))
            )
            tiles[n] = 0
        for product in differenced:
            _difference_step(product, n)
        for total, has_one, terms in summed.values():
            total[n] = (1 if has_one and n == 1 else 0) + sum(t[0][n] for t in terms)
    for lhs, arr in counts.items():
        if arr[0] != 0 or arr[1] not in (0, 1):
            raise AssertionError(f"count table for {lhs} violates c0=0, c1<=1")
    return counts, tuple(plan)


def _equal_series(spec: EquationSystem) -> dict[Restriction, int]:
    """The block of every restriction in the coarsest stable partition of
    the equations, numbered from 0: restrictions in one block have equal
    counts at every size.

    Starting from the atom flag, an equation's block is split by the sorted
    multiset of its terms, each term the sorted tuple of its children's
    blocks, until no block splits (Paige & Tarjan 1987)."""
    block = {lhs: int(eq.has_one) for lhs, eq in spec.equations.items()}
    while True:
        names: dict[tuple, int] = {}
        refined = {}
        for lhs, eq in spec.equations.items():
            terms = sorted(tuple(sorted(block[c] for c in t.children)) for t in eq.terms)
            refined[lhs] = names.setdefault((block[lhs], *terms), len(names))
        if len(names) == len(set(block.values())):
            return refined
        block = refined


# Pairs (i, n - i) with i or n - i below the edge are summed at size n;
# the others lie in the tiles, of side edge * 2^k.
_EDGE = 128
# Every decimal sum and product of the tiles is exact or raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded],
)


# The largest order d of the difference form's (1 - z)^d.
_DEGREE = 4
# One product in difference form: (series, other factor, factor, the
# coefficients of (1 - z)^d from z^d down to 1, q's nonzero terms
# (position, value) so far, the d running sums at the last size).
Differenced = tuple[list[int], list[int], list[int], list[int], list, list[int]]


def _difference_form(
    series: list[int], left: list[int], right: list[int], n: int
) -> Differenced:
    """The difference form of series = left * right from size n on, every
    coefficient below n being final: the factor b and the order d < n whose
    q = (1 - z)^d * b has the fewest nonzero coefficients below n, ties
    going to the left factor, then to the smaller d."""
    best = None
    for factor, other in ((left, right), (right, left)):
        q = factor[:n]
        for d in range(min(_DEGREE, n - 1) + 1):
            nonzero = len(q) - q.count(0)
            if best is None or nonzero < best[0]:
                best = nonzero, d, factor, other, q
            q = _difference(q)
    _, d, factor, other, q = best
    # the running sums hold (1 - z)^(d - k) * series at n - 1, k = 1..d
    sums, window = [], series[n - d : n]
    for _ in range(d):
        sums.append(window[-1])
        window = _difference(window)
    sums.reverse()
    signs = [(-1) ** k * math.comb(d, k) for k in range(d, -1, -1)]
    # q[n - 1] is appended by the first step
    terms = [(j, x) for j, x in enumerate(q[: n - 1]) if x]
    return series, other, factor, signs, terms, sums


def _difference(series: list[int]) -> list[int]:
    """(1 - z) * series, cut to the length of series."""
    return [y - x for x, y in zip([0] + series, series)]


def _difference_step(product: Differenced, n: int) -> None:
    """series[n] = (other * q)[n] summed d times, once q[n - 1] is appended
    if it is not 0; both factors are 0 at size 0 and final below n > d."""
    series, other, factor, signs, terms, sums = product
    x = sum(map(operator.mul, signs, factor[n - len(signs) : n]))
    if x:
        terms.append((n - 1, x))
    total = sum(x * other[n - j] for j, x in terms)
    for k, partial in enumerate(sums):
        total = sums[k] = partial + total
    series[n] = total


def _add_tiles(
    tiles: list, left: list[int], right: list[int], start: int, order: int
) -> None:
    """Add into tiles[start..order] the tiles of left * right at (a, b) with
    a + b = start, cut to the pairs whose sum is at most the order."""
    side = _EDGE
    while 2 * side <= start and start % side == 0:
        for a, b in {(side, start - side), (start - side, side)}:  # diagonal once
            l_cut = left[a : min(a + side, order + 1 - b)]
            r_cut = right[b : min(b + side, order + 1 - a)]
            _add_tile(tiles, l_cut, r_cut, start, order)
        side *= 2


def _add_tile(
    tiles: list, left: list[int], right: list[int], start: int, order: int
) -> None:
    """Add slot k of the packed product left * right into tiles[start + k],
    up to the order."""
    # a slot sums at most len(left) products, each below 2^bits
    bits = max(map(int.bit_length, left)) + max(map(int.bit_length, right))
    width = (bits + len(left).bit_length()) * 30103 // 100000 + 1  # 10^width > slot
    packed = _EXACT.multiply(_pack(left, width), _pack(right, width))
    count = len(left) + len(right) - 1
    if start + count > order + 1:
        count = order + 1 - start
        packed = _split(packed, width * count)[0]
    # halve at slot boundaries, never through one string of every digit
    pieces = [(packed, start, count)]
    while pieces:
        packed, k, count = pieces.pop()
        if count == 1:
            tiles[k] = _EXACT.add(tiles[k], packed)
        else:
            half = count // 2
            low, high = _split(packed, width * half)
            pieces += [(high, k + half, count - half), (low, k, half)]


def _split(
    packed: decimal.Decimal, digits: int
) -> tuple[decimal.Decimal, decimal.Decimal]:
    """packed mod 10^digits and packed // 10^digits, exactly."""
    high = _EXACT.scaleb(packed, -digits).to_integral_value(
        decimal.ROUND_DOWN, _EXACT
    )
    return _EXACT.subtract(packed, _EXACT.scaleb(high, digits)), high


def _pack(window: list[int], width: int) -> decimal.Decimal:
    """sum(window[k] * 10^(width * k)), summed pairwise with exact shifts."""
    terms = [decimal.Decimal(x) for x in window]
    while len(terms) > 1:
        odd = terms[-1:] if len(terms) % 2 else []
        terms = [
            _EXACT.add(low, _EXACT.scaleb(high, width))
            for low, high in zip(terms[::2], terms[1::2])
        ] + odd
        width *= 2
    return terms[0]


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
