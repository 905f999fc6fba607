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


def test_probability_from_a_restriction_without_equation_is_refused(av132_tables):
    key = ps.restriction("", [P("3142")])
    assert key not in av132_tables.system.equations
    with pytest.raises(InvalidInputError, match="has no equation"):
        ps.derivation_probability(av132_tables, P("1"), key)


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


# First draws for fixed seeds, recorded before the sampler wrote values in
# place; they pin both the order the walk consumes the source and where it
# puts every block.
PINNED_FIVE_ROOT_60 = [
    "54 53 52 51 50 57 56 55 48 43 42 46 45 44 41 37 40 39 38 36 32 33 29 28 26 30 27 25 21 "
    "23 22 17 19 18 16 7 8 5 6 3 1 4 2 9 10 11 12 13 14 15 20 24 31 34 35 47 49 58 59 60",
    "60 59 57 56 58 54 52 51 50 49 53 48 45 46 43 41 39 36 35 34 38 37 31 28 27 29 26 25 24 "
    "23 18 20 19 15 14 12 10 13 11 9 8 1 7 6 4 2 3 5 16 17 21 22 30 32 33 40 42 44 47 55",
    "60 59 53 58 57 56 55 54 49 51 50 47 46 45 43 44 37 41 40 39 38 32 31 34 33 29 30 28 27 "
    "24 25 20 19 18 22 21 17 16 15 1 14 13 10 11 9 5 4 2 3 6 7 8 12 23 26 35 36 42 48 52",
]
PINNED_SEPARABLE_40 = [
    "1 2 3 4 23 26 27 33 30 29 32 31 28 25 39 38 40 34 37 35 36 24 22 21 10 11 8 9 15 17 16 "
    "14 13 12 18 19 7 20 6 5",
    "2 31 3 30 4 25 5 7 11 19 17 16 18 13 14 12 15 22 20 21 23 24 8 9 10 6 27 26 28 29 1 39 "
    "38 40 32 35 34 36 33 37",
    "4 3 2 34 5 6 14 27 23 21 22 24 26 25 17 18 19 20 28 32 30 29 31 16 33 15 13 9 10 7 8 11 "
    "12 35 38 37 40 39 36 1",
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
# recorded while every node of a draw still looked its tables up by
# restriction
PINNED_DRAW_DIGESTS = {
    ("five-root", 200): "eff1b51a71e8809ca1785916e16173630494739c221b0500d6aa7030be0695fc",
    ("five-pattern", 1000): "c1977179f9e4bff790f018291d0ff29ed0c1dcfb420a3158b27a980b884985b5",
}


def test_pinned_draws_at_benchmark_sizes(five_root_spec, big_spec):
    specs = {"five-root": five_root_spec, "five-pattern": big_spec}
    got = {}
    for name, n in PINNED_DRAW_DIGESTS:
        draws = ps.sample_many(ps.build_tables(specs[name], n), n, 3, random.Random(7))
        text = json.dumps([str(p) for p in draws])
        got[name, n] = hashlib.sha256(text.encode()).hexdigest()
    assert got == PINNED_DRAW_DIGESTS


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
    # rows j >= 1: one list per distinct ordered child prefix
    assert all(len(ids) == 1 for ids in by_prefix.values())
    assert len(set().union(*by_prefix.values())) == len(by_prefix) == 18


def test_negative_sample_counts_are_refused(av21_tables):
    with pytest.raises(InvalidInputError):
        ps.sample_many(av21_tables, 5, -1, random.Random(0))
    with pytest.raises(InvalidInputError):
        ps.heatmap(av21_tables, 5, -3, random.Random(0))
    assert ps.sample_many(av21_tables, 5, 0, random.Random(0)) == []
    assert ps.heatmap(av21_tables, 5, 0, random.Random(0)) == [[0] * 5 for _ in range(5)]
