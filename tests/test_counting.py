import hashlib
import json
import math
import operator
import random
import sys

import pytest
from reference_systems import separable_counts

import permspec as ps
from permspec import counting
from permspec.counting import convolve
from permspec.errors import NonDisjointSystemError
from permspec.restrictions import RestrictionTerm, restriction

P = ps.perm

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
SCHRODER = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]


def closed_form_series(order):
    """Taylor coefficients of the known rational form for the five-basis
    class, by exact series division (numerator and denominator hardcoded)."""
    num = [0, 1, -7, 20, -28, 20, -7, 1] + [0] * max(0, order - 7)
    den = [1, -9, 32, -59, 62, -37, 13, -2] + [0] * max(0, order - 7)
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, n + 1):
            if j < len(den):
                acc -= den[j] * out[n - j]
        out[n] = acc
    return out


def reference_coefficients(spec, order):
    """Literal fixed-point iteration: every pass recomputes every series from
    the previous pass; coefficients up to n are stable after n passes."""
    cur = {lhs: [0] * (order + 1) for lhs in spec.equations}
    for pass_no in range(1, order + 2):
        nxt = {}
        for lhs, eq in spec.equations.items():
            arr = [0] * (order + 1)
            if eq.has_one:
                arr[1] += 1
            for t in eq.terms:
                prod = [1] + [0] * order
                for child in t.children:
                    prod = convolve(prod, cur[child], order)
                arr = [a + b for a, b in zip(arr, prod)]
            nxt[lhs] = arr
        for key in cur:
            stable = min(pass_no - 1, order)
            assert nxt[key][: stable + 1] == cur[key][: stable + 1], (
                "fixed point lost an already-stable coefficient"
            )
        cur = nxt
    return cur


def test_gf_system_shape_av21():
    basis = ps.basis_of([P("21")])
    spec = ps.specification(basis, ps.simple_set([]))
    eqs = {str(lhs): eq for lhs, eq in spec.equations.items()}
    assert eqs["C<21>"].has_one
    assert [tuple(str(c) for c in t.children) for t in eqs["C<21>"].terms] == [
        ("C+<21>", "C<21>")
    ]
    assert eqs["C+<21>"].terms == ()


def test_gf_refuses_ambiguous_system(big_basis, big_simples):
    amb = ps.ambiguous_system(big_basis, big_simples)
    with pytest.raises(NonDisjointSystemError):
        ps.coefficients(amb, 5)
    with pytest.raises(NonDisjointSystemError):
        ps.build_tables(amb, 5)


def test_counts_av21():
    spec = ps.specification(ps.basis_of([P("21")]), ps.simple_set([]))
    assert ps.class_counts(spec, 10) == [0] + [1] * 10


def test_counts_av132(av132_spec):
    assert ps.class_counts(av132_spec, 9) == [0] + CATALAN[1:]


def test_counts_big_class_match_closed_form(big_spec):
    assert ps.class_counts(big_spec, 20) == closed_form_series(20)


def test_counts_match_reference_fixed_point(av132_spec, big_spec, five_root_spec):
    # five-root's simple-root terms have 4 or more children, so their long
    # prefix products are the ones shared between equations
    for spec, order in ((av132_spec, 10), (big_spec, 10), (five_root_spec, 25)):
        fast = ps.coefficients(spec, order)
        slow = reference_coefficients(spec, order)
        assert fast == slow


def table_digest(table):
    text = json.dumps(sorted([str(lhs), arr] for lhs, arr in table.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of every restriction's counts to size 300, recorded when every
# term's prefix products were still convolved on their own
PINNED_TABLES = {
    "five-pattern": "86b945c190e2d2a2915f6383d9ab9207e4a81e5b7acb6c62358608c6b4d2a82f",
    "five-root": "71909ceff0b49e3d94f3c3ad47a480bf581a6b92da9c0e9586a07c0f5bebc2de",
    "Av(2413,3142,2143)": "7e7d91b804b65c266ab96630d36a54df3dbe54bc5a9286e7589881878048dfd8",
    "separable": "c06b540634e3c5f3b3f0089c0ffd8f1a124a0d9bd688fffd2ef46297cd28182e",
}


def test_count_tables_are_pinned(big_spec, five_root_spec, sep_subclass_spec):
    specs = {
        "five-pattern": big_spec,
        "five-root": five_root_spec,
        "Av(2413,3142,2143)": sep_subclass_spec,
        "separable": ps.substitution_closed_spec(ps.simple_set([])),
    }
    got = {name: table_digest(ps.coefficients(spec, 300)) for name, spec in specs.items()}
    assert got == PINNED_TABLES


# SHA-256 of every restriction's counts to size 2000, recorded when every
# product with a small factor was still one full dot product per size
PINNED_TABLES_2000 = {
    "five-pattern": "f69c5825649a7bd905c45d6f1eed1d5ee40ef4072b932a594c99151af5780dcc",
    "five-root": "6e4b3c6942e5d4572125fb5f12d72d891f98ce3a32b7a5a3d77bb8f64c8fa9cd",
}


def test_count_tables_to_2000_are_pinned(big_spec, five_root_spec):
    specs = {"five-pattern": big_spec, "five-root": five_root_spec}
    got = {name: table_digest(ps.coefficients(spec, 2000)) for name, spec in specs.items()}
    assert got == PINNED_TABLES_2000


def test_equal_prefixes_share_one_series(big_spec):
    # the separable closure's one product is tiled from size 255 on
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    for spec, order, uses, distinct in ((big_spec, 20, 40, 14), (separable, 300, 4, 1)):
        tables = ps.build_tables(spec, order)
        counts = tables.counts
        keys = [spec.root] + [k for k in spec.equations if k != spec.root]
        by_prefix = {}
        for key, (total, has_one, terms) in zip(keys, tables.plan):
            for t, (weight, _, rows, _, _) in zip(spec.equations[key].terms, terms):
                assert rows[0] is counts[t.children[0]] and weight is rows[-1]
                for j in range(1, len(rows)):
                    assert rows[j] == convolve(rows[j - 1], counts[t.children[j]], order)
                    by_prefix.setdefault(t.children[: j + 1], []).append(rows[j])
            for n in range(order + 1):
                atom = int(has_one and n == 1)
                assert total[n] == atom + sum(term[0][n] for term in terms)
        # prefixes whose factors are equal series share one list
        assert all(all(s is lists[0] for s in lists) for lists in by_prefix.values())
        assert sum(len(lists) for lists in by_prefix.values()) == uses
        ids = {id(s) for lists in by_prefix.values() for s in lists}
        assert len(ids) == distinct


def test_mirror_equations_share_one_list():
    # C+ = z + minus[C-, C] and C- = z + plus[C+, C] have equal series
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    counts = ps.build_tables(separable, 20).counts
    assert counts[restriction("+")] is counts[restriction("-")]
    assert counts[restriction("+")] is not counts[restriction("")]


def test_coefficients_hands_back_one_list_per_restriction():
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    table = ps.coefficients(separable, 10)
    want = {lhs: arr[:] for lhs, arr in table.items()}
    for lhs in table:
        table[lhs][5] += 1
        assert all(table[k] == want[k] for k in table if k != lhs)
        table[lhs][5] -= 1


def test_equations_that_agree_for_three_rounds_keep_their_own_lists():
    # with a = z: p0 = z and q0 = z + p0 * a split in the first round of
    # refinement; p_k = z + p_{k-1} * a and q_k = z + q_{k-1} * a split in
    # round k + 1, and their series differ from size k + 2 on; p1 = q0
    a = restriction("", [P("12")])
    names = ("123", "132", "213", "231", "312", "321", "1234", "1243")
    p0, q0, p1, q1, p2, q2, p3, q3 = (restriction("+", [P(x)]) for x in names)
    root = restriction("", [P("21")])
    rhs = {
        root: ((p3, a), (q3, a)),
        a: (),
        p0: (),
        q0: ((p0, a),),
        p1: ((p0, a),),
        q1: ((q0, a),),
        p2: ((p1, a),),
        q2: ((q1, a),),
        p3: ((p2, a),),
        q3: ((q2, a),),
    }
    spec = ps.EquationSystem((), root)
    for lhs, terms in rhs.items():
        terms = tuple(RestrictionTerm(ps.PLUS, kids) for kids in terms)
        spec.equations[lhs] = ps.Equation(lhs, lhs != root, terms, disjoint=True)
    assert len(spec.equations) == 10
    order = 12
    counts = ps.build_tables(spec, order).counts
    assert counts[p1] is counts[q0]
    assert counts[p3] is not counts[q3] and counts[p3][:5] == counts[q3][:5]
    assert counts == schoolbook_coefficients(spec, order)


def schoolbook_coefficients(spec, order):
    """The sweep without tiles: each term's prefix products, child by child,
    as one full dot product per size."""
    counts = {lhs: [0] * (order + 1) for lhs in spec.equations}
    terms = [(lhs, t) for lhs, eq in spec.equations.items() for t in eq.terms]
    rows = [[counts[t.children[0]]] + [[0] * (order + 1) for _ in t.children[1:]]
            for _, t in terms]
    mul = operator.mul
    for n in range(1, order + 1):
        for (_, t), row in zip(terms, rows):
            for j, kid in enumerate(t.children[1:], 1):
                row[j][n] = sum(map(mul, row[j - 1][n - 1 : 0 : -1], counts[kid][1:n]))
        for lhs, eq in spec.equations.items():
            counts[lhs][n] = int(eq.has_one and n == 1)
        for (lhs, _), row in zip(terms, rows):
            counts[lhs][n] += row[-1][n]
    return counts


def product_forms(spec, monkeypatch):
    """(tiled, differenced) distinct products of the spec's sweep past size
    2T - 1, each named by its two factors in either order; every product
    runs one of the two forms there."""
    tiled, differenced = set(), set()
    add_tiles, difference_step = counting._add_tiles, counting._difference_step

    def tile_spy(tiles, left, right, *rest):
        tiled.add(frozenset((id(left), id(right))))
        add_tiles(tiles, left, right, *rest)

    def step_spy(product, n):
        if n > 2 * counting._EDGE:
            _, other, factor, *_ = product
            differenced.add(frozenset((id(other), id(factor))))
        difference_step(product, n)

    monkeypatch.setattr(counting, "_add_tiles", tile_spy)
    monkeypatch.setattr(counting, "_difference_step", step_spy)
    _, plan = counting._solve(spec, 2 * counting._EDGE + 1)
    monkeypatch.undo()
    rows = [rows for _, _, terms in plan for _, _, rows, _, _ in terms]
    kids = [kids for _, _, terms in plan for _, _, _, kids, _ in terms]
    products = {
        frozenset((id(r[j - 1]), id(k[j])))
        for r, k in zip(rows, kids)
        for j in range(1, len(r))
    }
    # no two distinct products share their pair of factors
    assert len(products) == len({id(r[j]) for r in rows for j in range(1, len(r))})
    assert tiled | differenced == products and not tiled & differenced
    return len(tiled), len(differenced)


def test_tile_boundaries_match_the_schroder_recurrence(monkeypatch):
    # tiles of side 128 start at size 256, of side 256 at 512
    spec = ps.substitution_closed_spec(ps.simple_set([]))
    assert product_forms(spec, monkeypatch) == (1, 0)
    for order in (254, 255, 256, 257, 511, 512, 513, 700):
        assert ps.class_counts(spec, order) == separable_counts(order), order


def test_equal_series_halve_the_products_of_a_197_equation_class(monkeypatch):
    # its 197 equations fall into 82 blocks: 261 distinct products of 620
    # ordered prefixes; the digest was recorded when each equation had its
    # own list
    spec = ps.specification(
        ps.basis_of([P(x) for x in ("2413", "3142", "21354", "45312")]), ps.simple_set([])
    )
    assert product_forms(spec, monkeypatch) == (68, 193)
    assert (
        table_digest(ps.coefficients(spec, 300))
        == "a0cc5d56572b91858bd7b10d7c82c653ddd5b35675e6447c64cf00b279da803c"
    )


def test_catalan_to_600(av132_spec):
    catalan = [math.comb(2 * n, n) // (n + 1) for n in range(1, 601)]
    assert ps.class_counts(av132_spec, 600) == [0] + catalan


def test_tiled_and_schoolbook_products_match_the_schoolbook_sweep(
    av132_spec, big_spec, five_root_spec, sep_subclass_spec, monkeypatch
):
    # every five-pattern and five-root product has a factor of at most 28
    # bits at size 600; Av(132) tiles its Catalan product, Av(2413,3142,2143)
    # one product of four and the hard basis 60 of 124
    hard = ps.specification(
        ps.basis_of([P(x) for x in ("2413", "3142", "21354", "12453")]), ps.simple_set([])
    )
    for spec, forms, order in (
        (big_spec, (0, 14), 600),
        (five_root_spec, (0, 16), 600),
        (sep_subclass_spec, (1, 3), 600),
        (av132_spec, (1, 2), 600),
        (hard, (60, 64), 300),
    ):
        assert product_forms(spec, monkeypatch) == forms
        assert ps.coefficients(spec, order) == schoolbook_coefficients(spec, order)


def test_difference_form_orders_are_below_the_size_of_the_fit():
    # at size 4 the factor 0, 1, 4, 5 has the sparsest difference at d = 4,
    # whose q[3] = 5 - 4 * 4 + 6 * 1 = -5 would need the factor at size -1
    order, start = 64, 4
    rng = random.Random(20)
    wide = [0] + [rng.getrandbits(100) for _ in range(order)]
    small = [0, 1, 4, 5] + [j * j for j in range(4, order + 1)]
    for left, right in ((wide, small), (small, wide)):
        want = [sum(left[i] * right[n - i] for i in range(1, n)) for n in range(order + 1)]
        series = want[:start] + [0] * (order + 1 - start)
        product = counting._difference_form(series, left, right, start)
        assert len(product[3]) <= start  # the coefficients of (1 - z)^d, d < 4
        for n in range(start, order + 1):
            counting._difference_step(product, n)
        assert series == want


def test_difference_form_follows_a_factor_that_changes_shape():
    # a quadratic factor, bumped at 400 and restarted at 650, both after the
    # form is chosen at 256, times a random 200-bit factor, in either order
    order, start = 700, 2 * counting._EDGE
    rng = random.Random(19)
    wide = [0] + [rng.getrandbits(200) for _ in range(order)]
    quadratic = [0] + [j * j for j in range(1, 650)]
    quadratic += [(j - 650) ** 2 for j in range(650, order + 1)]
    quadratic[400] += 7
    for left, right in ((wide, quadratic), (quadratic, wide)):
        want = [sum(left[i] * right[n - i] for i in range(1, n)) for n in range(order + 1)]
        series = want[:start] + [0] * (order + 1 - start)
        product = counting._difference_form(series, left, right, start)
        _, other, factor, _, terms, sums = product
        # (1 - z)^3 * sum(j^2 z^j) = z + z^2
        assert factor is quadratic and other is wide and len(sums) == 3
        assert terms == [(1, 1), (2, 1)]
        for n in range(start, order + 1):
            counting._difference_step(product, n)
        assert series == want
        # q gained the bump's and the restart's terms as sizes went by
        q = quadratic
        for _ in range(3):
            q = [y - x for x, y in zip([0] + q, q)]
        assert terms == [(j, x) for j, x in enumerate(q[:order]) if x]
        assert {j for j, _ in terms[2:]} <= {*range(400, 404), *range(650, 654)}


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no int-to-str digit limit before CPython 3.10.7",
)
def test_counts_beyond_the_int_string_limit():
    # c_900 of the separable closure has 690 digits
    want = separable_counts(900)
    spec = ps.substitution_closed_spec(ps.simple_set([]))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        got = ps.class_counts(spec, 900)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_substitution_closed_spec_shapes():
    spec = ps.substitution_closed_spec(ps.simple_set([P("3142")]))
    assert len(spec.equations) == 3
    for eq in spec.equations.values():
        simple_terms = [t for t in eq.terms if t.root == P("3142")]
        assert len(simple_terms) == 1
        assert eq.has_one and eq.disjoint


def test_separable_counts():
    spec = ps.substitution_closed_spec(ps.simple_set([]))
    assert ps.class_counts(spec, 8) == [0] + SCHRODER[:8]


def test_separable_matches_oracle():
    spec = ps.substitution_closed_spec(ps.simple_set([]))
    counts = ps.class_counts(spec, 7)
    for n in range(1, 8):
        assert counts[n] == len(ps.enumerate_class([P("2413"), P("3142")], n))


def test_route_consistency_substitution_closed():
    via_closure = ps.class_counts(ps.substitution_closed_spec(ps.simple_set([])), 9)
    basis = ps.basis_of([P("2413"), P("3142")])
    via_spec = ps.class_counts(ps.specification(basis, ps.simple_set([])), 9)
    assert via_closure == via_spec


def test_quadratic_residual_separable():
    assert ps.quadratic_residual(ps.simple_set([]), 12) == [0] * 13
    assert ps.quadratic_residual(ps.simple_set([]), 1) == [0, 0]


def test_quadratic_residual_small_simple_sets():
    s = ps.simple_set([P("3142"), P("2413")])
    assert ps.quadratic_residual(s, 8) == [0] * 9
    s2 = ps.simple_set([P("2413"), P("3142"), P("24153")])
    assert ps.quadratic_residual(s2, 10) == [0] * 11


def test_closure_counts_match_oracle():
    s = ps.simple_set([P("3142")])
    counts = ps.class_counts(ps.substitution_closed_spec(s), 7)
    members = ps.closure_members([P("3142")], 7)
    for n in range(1, 8):
        assert counts[n] == len(members[n])


def test_positivity_and_zero_constant(big_spec):
    tables = ps.coefficients(big_spec, 12)
    for arr in tables.values():
        assert arr[0] == 0
        assert all(v >= 0 for v in arr)
