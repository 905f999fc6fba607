import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

import permspec as ps
from permspec.errors import InvalidInputError, SampleError
from permspec.restrictions import Restriction

P = ps.perm


@pytest.fixture(scope="module")
def av21_tables():
    spec = ps.specification(ps.basis_of([P("21")]), ps.simple_set([]))
    return ps.build_tables(spec, 8)


@pytest.fixture(scope="module")
def av132_tables(av132_spec):
    return ps.build_tables(av132_spec, 8)


@pytest.fixture(scope="module")
def big_tables(big_spec):
    return ps.build_tables(big_spec, 10)


def test_av21_unique_member(av21_tables):
    rng = random.Random(3)
    for _ in range(10):
        assert ps.sample(av21_tables, 5, rng) == P("12345")


def test_av132_size3_support(av132_tables):
    rng = random.Random(0)
    seen = {ps.sample(av132_tables, 3, rng).values for _ in range(300)}
    assert seen == {(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)}


def test_samples_stay_in_class(big_tables, big_basis):
    rng = random.Random(11)
    for n in (4, 7, 10):
        for _ in range(40):
            p = ps.sample(big_tables, n, rng)
            assert len(p) == n
            assert all(ps.avoids(p, beta) for beta in big_basis.patterns)


def test_determinism_under_fixed_seed(big_tables):
    a = ps.sample_many(big_tables, 9, 25, random.Random(42))
    b = ps.sample_many(big_tables, 9, 25, random.Random(42))
    assert a == b


def test_sample_errors(av21_tables):
    with pytest.raises(InvalidInputError):
        ps.sample(av21_tables, 9, random.Random(0))
    spec = ps.specification(ps.basis_of([P("12"), P("21")]), ps.simple_set([]))
    tables = ps.build_tables(spec, 4)
    with pytest.raises(SampleError):
        ps.sample(tables, 2, random.Random(0))


def test_build_tables_refuses_ambiguous(big_basis, big_simples):
    from permspec.errors import NonDisjointSystemError

    amb = ps.ambiguous_system(big_basis, big_simples)
    with pytest.raises(NonDisjointSystemError):
        ps.build_tables(amb, 5)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_uniformity_av132(av132_tables, n):
    members = ps.enumerate_class([P("132")], n)
    want = Fraction(1, len(members))
    for sigma in members:
        assert ps.derivation_probability(av132_tables, sigma) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_uniformity_big_class(big_tables, big_basis, n):
    members = ps.enumerate_class(big_basis.patterns, n)
    want = Fraction(1, len(members))
    for sigma in members:
        assert ps.derivation_probability(big_tables, sigma) == want


def test_probability_of_non_member_raises(av132_tables):
    with pytest.raises(SampleError):
        ps.derivation_probability(av132_tables, P("132"))


def test_probability_beyond_the_tables_is_refused(av132_tables):
    with pytest.raises(InvalidInputError, match="outside table range"):
        ps.derivation_probability(av132_tables, ps.Permutation(tuple(range(1, 10))))


def test_exact_uniformity_of_large_draws(big_spec):
    tables = ps.build_tables(big_spec, 500)
    want = Fraction(1, tables.counts[big_spec.root][500])
    rng = random.Random(500)
    for sigma in ps.sample_many(tables, 500, 3, rng):
        assert ps.derivation_probability(tables, sigma) == want


def test_exact_uniformity_of_a_deep_tree(av132_spec):
    # 12...1200 decomposes into a chain of 1199 plus nodes, deeper than the
    # default recursion limit
    tables = ps.build_tables(av132_spec, 1200)
    sigma = ps.Permutation(tuple(range(1, 1201)))
    assert sys.getrecursionlimit() < 1200
    want = Fraction(1, tables.counts[av132_spec.root][1200])
    assert ps.derivation_probability(tables, sigma) == want


def test_sampling_large_size_runs():
    spec = ps.substitution_closed_spec(ps.simple_set([]))
    tables = ps.build_tables(spec, 120)
    p = ps.sample(tables, 120, random.Random(5))
    assert len(p) == 120


def test_draws_are_permutations(av132_spec, sep_subclass_spec, big_spec, five_root_spec):
    # unranking builds its result without the check Permutation(values)
    # makes, so the draws themselves must be shown to be permutations
    av21 = ps.specification(ps.basis_of([P("21")]), ps.simple_set([]))
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    for spec in (av21, av132_spec, sep_subclass_spec, big_spec, five_root_spec, separable):
        tables = ps.build_tables(spec, 1000)
        for n in (200, 1000):
            for seed in range(3):
                sigma = ps.sample(tables, n, random.Random(seed))
                assert type(sigma) is ps.Permutation
                assert sorted(sigma) == list(range(1, n + 1))


# First draws for fixed seeds, recorded when a draw became the unranking of
# one uniform integer; they pin the rank order (term offsets, splits scanned
# from both ends, mixed-radix child ranks) and where the walk puts every block.
PINNED_FIVE_ROOT_60 = [
    "58 55 59 57 56 54 53 50 49 51 46 43 48 47 45 44 41 40 42 38 36 37 35 32 31 30 29 28 27 "
    "33 24 23 25 21 22 19 18 20 17 15 14 11 8 5 4 1 6 3 2 7 9 10 12 13 16 26 34 39 52 60",
    "59 58 56 57 54 53 50 49 47 52 51 48 45 44 46 43 41 40 42 38 37 35 39 36 33 34 31 30 27 "
    "28 25 23 22 21 26 24 20 18 17 16 15 11 10 1 9 12 5 6 2 3 4 7 8 13 14 19 29 32 55 60",
    "59 60 58 55 56 51 50 48 53 52 49 46 44 42 45 43 36 39 38 37 35 33 28 29 26 20 19 25 24 "
    "23 22 21 17 16 11 12 8 6 7 5 1 3 2 4 9 10 13 14 15 18 27 30 31 32 34 40 41 47 54 57",
]
PINNED_SEPARABLE_40 = [
    "1 33 34 32 31 30 35 28 29 36 15 20 21 16 18 19 17 22 8 7 14 11 10 9 12 13 24 26 27 25 "
    "23 39 38 40 37 6 4 3 2 5",
    "1 3 2 40 31 39 32 37 36 38 35 33 34 30 4 9 8 6 7 28 10 19 23 22 24 21 20 26 25 14 13 15 "
    "12 17 16 18 11 27 5 29",
    "40 32 33 34 29 28 26 7 14 15 10 11 12 9 13 8 4 2 3 6 5 19 17 18 16 20 1 22 24 23 21 25 "
    "27 31 30 37 36 35 38 39",
]


def test_pinned_draws():
    five_root = ps.specification(
        ps.basis_of([P("1243"), P("2341"), P("2413"), P("531642")]),
        ps.simple_set([P("3142"), P("41352")]),
    )
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    for spec, n, want in (
        (five_root, 60, PINNED_FIVE_ROOT_60),
        (separable, 40, PINNED_SEPARABLE_40),
    ):
        got = ps.sample_many(ps.build_tables(spec, n), n, 3, random.Random(7))
        assert [str(p) for p in got] == want


# SHA-256 of the first three draws for seed 7 at the benchmark's sizes,
# recorded when a draw became the unranking of one uniform integer
PINNED_DRAW_DIGESTS = {
    ("five-root", 200): "0e11fbf0806c5611a82904e8b2628c85c8d5474a9c7990eaa41ab64ddaa4a46d",
    ("five-pattern", 1000): "5c7c0e9f9d3432d05f615e82a0e7d6db1ba8a3fd4e9be40bc7402d51bee76bdd",
}


def test_pinned_draws_at_benchmark_sizes(five_root_spec, big_spec):
    specs = {"five-root": five_root_spec, "five-pattern": big_spec}
    got = {}
    for name, n in PINNED_DRAW_DIGESTS:
        draws = ps.sample_many(ps.build_tables(specs[name], n), n, 3, random.Random(7))
        text = json.dumps([str(p) for p in draws])
        got[name, n] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_DRAW_DIGESTS


# SHA-256 of the draws for seeds 0..19 of the separable closure at n=600,
# recorded when every product was a full dot product at each size; its
# two products are tiled from size 255 on
PINNED_SEPARABLE_600 = "984448e7b83105d38bfe14e73c95602de2e56446cfc84a5590bfc1c274ad21b2"


@pytest.fixture(scope="module")
def separable_600():
    return ps.build_tables(ps.substitution_closed_spec(ps.simple_set([])), 600)


def test_pinned_draws_on_tiled_tables(separable_600):
    draws = [str(ps.sample(separable_600, 600, random.Random(seed))) for seed in range(20)]
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == PINNED_SEPARABLE_600


def test_rank_inverts_unrank_on_tiled_tables(separable_600):
    count = separable_600.counts[separable_600.system.root][600]
    for k in range(50):
        i = (count - 1) * k // 49
        assert ps.rank(separable_600, ps.unrank(separable_600, 600, i)) == i


@pytest.fixture(scope="module")
def ranked_classes(av132_spec, av132_basis, big_spec, big_basis, five_root_spec):
    """(tables to 8, the class's basis for the oracle) per gate class."""
    separable = ps.substitution_closed_spec(ps.simple_set([]))
    five_root_basis = [P(x) for x in ("1243", "2341", "2413", "531642")]
    return {
        name: (ps.build_tables(spec, 8), patterns)
        for name, spec, patterns in (
            ("Av(132)", av132_spec, av132_basis.patterns),
            ("five-pattern", big_spec, big_basis.patterns),
            ("five-root", five_root_spec, five_root_basis),
            ("separable", separable, [P("2413"), P("3142")]),
        )
    }


def test_unrank_enumerates_the_class(ranked_classes):
    for name, (tables, patterns) in ranked_classes.items():
        members = ps.class_members(patterns, 8)
        for n in range(1, 9):
            count = tables.counts[tables.system.root][n]
            got = {ps.unrank(tables, n, i) for i in range(count)}
            assert len(got) == count and got == set(members[n]), (name, n)


def test_rank_inverts_unrank(ranked_classes):
    for name, (tables, _) in ranked_classes.items():
        for n in range(1, 9):
            for i in range(tables.counts[tables.system.root][n]):
                assert ps.rank(tables, ps.unrank(tables, n, i)) == i, (name, n, i)


def test_unrank_refusals(av132_tables):
    count = av132_tables.counts[av132_tables.system.root][5]
    for bad in (-1, count, count + 7):
        with pytest.raises(InvalidInputError, match="rank"):
            ps.unrank(av132_tables, 5, bad)
    for n in (0, 9):
        with pytest.raises(InvalidInputError, match="outside table range"):
            ps.unrank(av132_tables, n, 0)
    spec = ps.specification(ps.basis_of([P("12"), P("21")]), ps.simple_set([]))
    with pytest.raises(SampleError):
        ps.unrank(ps.build_tables(spec, 4), 2, 0)


def test_rank_refuses_a_non_member(av132_tables):
    with pytest.raises(SampleError):
        ps.rank(av132_tables, P("132"))
    with pytest.raises(SampleError):
        ps.rank(av132_tables, P("21453"))


def test_rank_of_large_draws(big_spec):
    tables = ps.build_tables(big_spec, 1000)
    sigma = ps.sample(tables, 1000, random.Random(1000))
    assert ps.unrank(tables, 1000, ps.rank(tables, sigma)) == sigma


def test_rank_of_a_deep_tree(av132_spec):
    # 12...1200 is a chain of 1199 plus nodes, deeper than the default
    # recursion limit; it is the last of all plus-chains in the rank order
    tables = ps.build_tables(av132_spec, 1200)
    sigma = ps.Permutation(tuple(range(1, 1201)))
    r = ps.rank(tables, sigma)
    assert 0 <= r < tables.counts[av132_spec.root][1200]
    assert ps.unrank(tables, 1200, r) == sigma


class CountingSource:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.bounds = []

    def randrange(self, bound):
        self.bounds.append(bound)
        return self.rng.randrange(bound)


def test_one_source_call_per_draw(five_root_spec):
    tables = ps.build_tables(five_root_spec, 200)
    source = CountingSource(9)
    draws = ps.sample_many(tables, 200, 25, source)
    assert len(draws) == 25
    assert source.bounds == [tables.counts[five_root_spec.root][200]] * 25


def test_draws_look_up_no_restriction(big_tables, monkeypatch):
    def refuse(self):
        raise AssertionError(f"a draw hashed {self}")

    monkeypatch.setattr(Restriction, "__hash__", refuse)
    rng = random.Random(2)
    for n in (1, 2, 10):
        assert len(ps.sample(big_tables, n, rng)) == n


def test_plan_shares_the_counting_lists(big_tables):
    system, counts = big_tables.system, big_tables.counts
    keys = [system.root] + [k for k in system.equations if k != system.root]
    assert len(big_tables.plan) == len(keys)
    assert big_tables.plan[0][0] is counts[system.root]
    by_prefix = {}
    for key, (total, has_one, terms) in zip(keys, big_tables.plan):
        eq = system.equations[key]
        assert total is counts[key] and has_one == eq.has_one
        assert len(terms) == len(eq.terms)
        for t, (weight, kids, rows, kid_counts, order) in zip(eq.terms, terms):
            assert len(rows) == len(t.children) and weight is rows[-1]
            assert rows[0] is counts[t.children[0]]
            for j in range(1, len(rows)):
                by_prefix.setdefault(t.children[: j + 1], set()).add(id(rows[j]))
            assert [keys[i] for i in kids] == list(t.children)
            assert all(c is counts[child] for c, child in zip(kid_counts, t.children))
            assert [t.root.values[c] for c in order] == sorted(t.root.values)
    # rows j >= 1: prefixes whose factors are equal series share one list
    assert all(len(ids) == 1 for ids in by_prefix.values())
    assert len(set().union(*by_prefix.values())) == 14


def test_negative_sample_counts_are_refused(av21_tables):
    with pytest.raises(InvalidInputError):
        ps.sample_many(av21_tables, 5, -1, random.Random(0))
    with pytest.raises(InvalidInputError):
        ps.heatmap(av21_tables, 5, -3, random.Random(0))
    assert ps.sample_many(av21_tables, 5, 0, random.Random(0)) == []
    assert ps.heatmap(av21_tables, 5, 0, random.Random(0)) == [[0] * 5 for _ in range(5)]
