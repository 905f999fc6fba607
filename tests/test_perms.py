import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permspec as ps
from permspec.errors import DecompositionError, InvalidInputError, InvalidPermutationError
from permspec.perms import (
    _occurrence_search,
    decomposition_tree,
    normalized_blocks,
    pattern_at,
    sort_key,
)
from props import (
    all_perms,
    check_closure_downward_closed,
    check_decomposition_roundtrip,
    check_decomposition_uniqueness,
    check_interval_soundness,
    check_pattern_order_antisymmetry,
    minus_decomposable,
    plus_decomposable,
    random_perm,
    simple_by_intervals,
)

P = ps.perm


@st.composite
def perms(draw, max_n=7, min_n=1):
    n = draw(st.integers(min_n, max_n))
    return ps.Permutation(tuple(draw(st.permutations(range(1, n + 1)))))


def test_normalize_fixture():
    assert ps.normalize((3, 6, 4, 2)) == P("2431")


def test_normalize_identity_and_empty():
    assert ps.normalize(range(10, 16)) == P("1 2 3 4 5 6")
    assert ps.normalize(()) == ps.EMPTY


def test_normalize_rejects_duplicates():
    with pytest.raises(InvalidPermutationError):
        ps.normalize((1, 3, 3))


def test_permutation_validation():
    with pytest.raises(InvalidPermutationError):
        ps.Permutation((1, 3))


def test_permutation_is_the_tuple_of_its_values():
    p = P("3142")
    assert isinstance(p, tuple) and p.values is p
    assert p == (3, 1, 4, 2) and hash(p) == hash((3, 1, 4, 2))
    assert {(3, 1, 4, 2): "x"}[p] == "x"
    assert p[0] == 3 and p[1:] == (1, 4, 2) and type(p[1:]) is tuple
    assert p + (5,) == (3, 1, 4, 2, 5) and type(p + (5,)) is tuple
    # `<` is lexicographic; sort_key orders by size first
    assert P("213") < P("3142") and sort_key(P("3142")) > sort_key(P("213"))


def test_permutation_construction():
    made = [
        ps.Permutation((2, 3, 1)),
        ps.Permutation([2, 3, 1]),
        ps.Permutation(v for v in (2, 3, 1)),
        ps.Permutation(values=(2, 3, 1)),
        ps.Permutation(P("231")),
    ]
    for p in made:
        assert type(p) is ps.Permutation and p == P("231")
    assert ps.Permutation(()) == ps.EMPTY


def test_permutation_refusals():
    with pytest.raises(TypeError):
        ps.Permutation()
    with pytest.raises(InvalidPermutationError) as exc:
        ps.Permutation([1, 1])
    assert str(exc.value) == "not a permutation of 1..2: (1, 1)"
    with pytest.raises(InvalidPermutationError) as exc:
        P("1 3")
    assert str(exc.value) == "not a permutation of 1..2: (1, 3)"
    with pytest.raises(InvalidPermutationError) as exc:
        ps.normalize((1, 3, 3))
    assert str(exc.value) == "duplicate entries in (1, 3, 3)"


def test_permutation_is_immutable():
    p = P("21")
    with pytest.raises(AttributeError):
        p.values = (1, 2)
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(TypeError):
        p[0] = 1


def test_permutation_copies():
    p = P("2413")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is ps.Permutation and q == p
    q = copy.deepcopy(p)
    assert type(q) is ps.Permutation and q == p


def test_permutation_text_forms():
    assert not ps.EMPTY and len(ps.EMPTY) == 0
    assert repr(ps.EMPTY) == "EMPTY" and str(ps.EMPTY) == "" and ps.EMPTY.compact() == ""
    p = P("3142")
    assert (repr(p), str(p), p.compact()) == ("perm('3 1 4 2')", "3 1 4 2", "3142")
    big = ps.Permutation(range(1, 11))
    assert big.compact() == str(big) == "1 2 3 4 5 6 7 8 9 10"


@given(perms())
def test_normalize_fixes_permutations(p):
    assert ps.normalize(p.values) == p


def test_occurrences_fixture():
    occ = ps.occurrences(P("316452"), P("2431"))
    assert occ == {(1, 3, 4, 6), (1, 3, 5, 6)}
    assert ps.occurrences(P("316452"), P("2413")) == set()


@given(perms())
def test_occurrences_reflexive(p):
    assert ps.occurrences(p, p) == {tuple(range(1, len(p) + 1))}


@given(perms(max_n=6), perms(max_n=4))
@settings(max_examples=150)
def test_occurrence_witnesses_are_patterns(host, patt):
    for occ in ps.occurrences(host, patt):
        assert ps.normalize([host.values[i - 1] for i in occ]) == patt


def occurrences_by_brute_force(host, patt):
    """Every increasing 0-based position tuple whose host values are ordered
    as patt's, in lexicographic order: all k-subsets filtered by the order
    of their values."""
    k = len(patt)
    shape = sorted(range(k), key=patt.__getitem__)
    return [
        c
        for c in itertools.combinations(range(len(host)), k)
        if sorted(range(k), key=lambda i: host[c[i]]) == shape
    ]


def test_occurrence_search_matches_brute_force():
    # every host of size <= 6 with every pattern of size <= 4 (the empty
    # pattern and patterns longer than the host included), then random
    # hosts of size 8-30 with patterns of size 3-6
    rng = random.Random(2001)
    pairs = [
        (host, patt)
        for n in range(7)
        for host in itertools.permutations(range(1, n + 1))
        for k in range(5)
        for patt in itertools.permutations(range(1, k + 1))
    ]
    for _ in range(24):
        n, k = rng.randint(8, 30), rng.randint(3, 6)
        host, patt = rng.sample(range(1, n + 1), n), rng.sample(range(1, k + 1), k)
        pairs.append((tuple(host), tuple(patt)))
    for host, patt in pairs:
        want = occurrences_by_brute_force(host, patt)
        assert list(_occurrence_search(host, patt, True)) == want, (host, patt)
        assert list(_occurrence_search(host, patt, False)) == want[:1], (host, patt)
    assert list(_occurrence_search((2, 1, 3), (), True)) == [()]
    assert list(_occurrence_search((2, 1), (1, 2, 3), True)) == []


def test_intervals_from_fixtures():
    p = P("546312")
    assert ps.intervals_from(p, 1) == {(1, 1), (1, 2), (1, 3), (1, 4), (1, 6)}
    assert ps.intervals_from(p, 2) == {(2, 2)}
    with pytest.raises(InvalidInputError):
        ps.intervals_from(p, 7)


@given(perms(), st.data())
def test_singleton_always_interval(p, data):
    i = data.draw(st.integers(1, len(p)))
    assert (i, i) in ps.intervals_from(p, i)


def test_is_simple():
    assert ps.is_simple(P("3142"))
    assert ps.is_simple(P("31524"))
    assert not ps.is_simple(P("132"))
    assert not ps.is_simple(P("1"))
    assert not ps.is_simple(P("12"))
    assert not ps.is_simple(P("21"))
    assert not ps.is_simple(P("2143"))


def test_no_size_three_simple():
    assert not any(ps.is_simple(ps.Permutation(p)) for p in itertools.permutations((1, 2, 3)))


def test_substitute_fixtures():
    assert ps.substitute(P("132"), [P("21"), P("132"), P("1")]) == P("214653")
    big = ps.substitute(
        P("2413"), [P("476519328"), P("1"), P("12"), P("35241")]
    )
    assert big == ps.perm("6 9 8 7 3 11 5 4 10 17 1 2 14 16 13 15 12")


@given(perms())
def test_substitute_identity_inflation(p):
    assert ps.substitute(p, [ps.ONE] * len(p)) == p


def test_substitute_errors():
    with pytest.raises(InvalidInputError):
        ps.substitute(P("12"), [P("1")])
    with pytest.raises(InvalidInputError):
        ps.substitute(P("12"), [P("1"), ps.EMPTY])


def test_generalized_substitute_fixtures():
    assert ps.generalized_substitute(P("132"), [P("21"), ps.EMPTY, P("1")]) == P("213")
    assert ps.generalized_substitute(
        P("3142"), [P("21"), ps.EMPTY, P("1"), P("312")]
    ) == P("546312")
    assert ps.generalized_substitute(P("2413"), [ps.EMPTY, P("321"), ps.EMPTY, ps.EMPTY]) == P("321")


def test_decompose_fixtures():
    assert ps.decompose(P("546312")) == (ps.MINUS, (P("213"), P("312")))
    assert ps.decompose(P("12")) == (ps.PLUS, (P("1"), P("1")))
    assert ps.decompose(P("214653")) == (ps.PLUS, (P("21"), P("2431")))
    big = ps.perm("6 9 8 7 3 11 5 4 10 17 1 2 14 16 13 15 12")
    root, children = ps.decompose(big)
    assert root == P("2413")
    assert children == (P("476519328"), P("1"), P("12"), P("35241"))


def test_decompose_large_inflation_of_a_simple():
    # 3142 inflated by four increasing runs of 250: no linear split, so the
    # parts are the maximal intervals, found in one pass
    run = ps.Permutation(tuple(range(1, 251)))
    p = ps.substitute(P("3142"), [run] * 4)
    start = time.perf_counter()
    root, children = ps.decompose(p)
    elapsed = time.perf_counter() - start
    assert root == P("3142")
    assert children == (run,) * 4
    assert elapsed < 1.0, f"decompose of size 1000 took {elapsed:.2f} s"


def test_decompose_large_simple():
    # the parallel alternation 2 4 ... 1000 1 3 ... 999 is simple: every
    # maximal proper interval is a single point
    p = ps.Permutation(tuple(range(2, 1001, 2)) + tuple(range(1, 1000, 2)))
    start = time.perf_counter()
    root, children = ps.decompose(p)
    elapsed = time.perf_counter() - start
    assert (root, children) == (p, (ps.ONE,) * 1000)
    assert elapsed < 1.0, f"decompose of size 1000 took {elapsed:.2f} s"


def test_decompose_rejects_small():
    with pytest.raises(DecompositionError):
        ps.decompose(P("1"))
    with pytest.raises(DecompositionError):
        ps.decompose(ps.EMPTY)


def test_in_closure():
    assert not ps.in_closure(P("3142"), [])
    assert ps.in_closure(P("3142"), [P("3142")])
    assert ps.in_closure(P("214653"), [])
    with pytest.raises(InvalidInputError):
        ps.in_closure(P("12"), [P("123")])
    with pytest.raises(DecompositionError):
        ps.in_closure(ps.EMPTY, [])


def test_in_closure_deep_tree():
    # one plus node per entry: the tree is as deep as the permutation is long
    assert ps.in_closure(ps.Permutation(tuple(range(1, 2001))), [])
    assert not ps.in_closure(ps.Permutation(tuple(range(1, 1997)) + (1998, 2000, 1997, 1999)), [])


def test_indecomposability_predicates():
    # the props referee, and the tree's root that agrees with it
    assert plus_decomposable(P("12")) and ps.decompose(P("12"))[0] == ps.PLUS
    assert not plus_decomposable(P("21"))
    assert minus_decomposable(P("21")) and ps.decompose(P("21"))[0] == ps.MINUS
    assert not minus_decomposable(P("1"))


def reference_tree(p):
    """(size, root, subtrees) of p by recursion over `decompose` of the
    normalized blocks."""
    if len(p) == 1:
        return (1, None, ())
    root, children = ps.decompose(p)
    return (len(p), root, tuple(reference_tree(c) for c in children))


def nested(tree, v=0):
    """The flat breadth-first tree as (size, root, subtrees) from node v."""
    size, root, base = tree[v]
    kids = range(base, base + len(root)) if root is not None else ()
    return (size, root, tuple(nested(tree, k) for k in kids))


def random_deep_perm(rng, n):
    """A size-n permutation grown by inflating one entry at a time with a
    small random permutation, so its tree is deep and mixes all shapes."""
    p = ps.ONE
    while len(p) < n:
        blocks = [ps.ONE] * len(p)
        blocks[rng.randrange(len(p))] = random_perm(rng, rng.randint(2, min(6, n - len(p) + 1)))
        p = ps.substitute(p, blocks)
    return p


def seeded_randoms():
    """Seeded uniform and deep permutations of sizes 9 to 60, three of each
    kind per size."""
    rng = random.Random(12)
    return [f(rng, n) for n in range(9, 61) for f in (random_perm, random_deep_perm) * 3]


def test_decomposition_tree_matches_recursive_decompose():
    # every node is decompose of the normalized block it covers; the walk
    # keeps windows of p's own values, so this checks their bookkeeping
    for p in [q for n in range(1, 9) for q in all_perms(n)] + seeded_randoms():
        tree = decomposition_tree(p)
        assert nested(tree) == reference_tree(p), p
        assert len(tree) == 1 + sum(len(root) for _, root, _ in tree if root is not None)
        # a prime node's root is the quotient by its maximal intervals:
        # simple by theorem, which the split itself does not re-check
        roots = [root for _, root, _ in tree if root not in (None, ps.PLUS, ps.MINUS)]
        assert all(simple_by_intervals(root) for root in roots), p


def test_is_simple_matches_intervals():
    # is_simple reads the split's part count; the referee lists intervals
    alternation = ps.Permutation(tuple(range(2, 1001, 2)) + tuple(range(1, 1000, 2)))
    inflated = ps.substitute(alternation, [ps.ONE] * 500 + [P("21")] + [ps.ONE] * 499)
    smalls = [q for n in range(1, 9) for q in all_perms(n)]
    for p in smalls + seeded_randoms() + [alternation, inflated]:
        assert ps.is_simple(p) == simple_by_intervals(p), p
    assert ps.is_simple(alternation) and not ps.is_simple(inflated)


def test_decomposition_tree_of_a_deep_chain():
    # 12...20000 is a chain of 19,999 plus nodes and 20,000 leaves; a walk
    # that copies every block costs O(n^2) here
    p = ps.Permutation(tuple(range(1, 20001)))
    start = time.perf_counter()
    tree = decomposition_tree(p)
    elapsed = time.perf_counter() - start
    assert len(tree) == 39_999
    assert elapsed < 1.0, f"decomposition tree of 12...20000 took {elapsed:.2f} s"
    assert ps.in_closure(p, [])


def test_decomposition_tree_rejects_empty():
    assert decomposition_tree(ps.ONE) == [(1, None, 1)]
    with pytest.raises(DecompositionError):
        decomposition_tree(ps.EMPTY)


def test_normalized_blocks():
    assert normalized_blocks(P("1243")) == {P("1"), P("12"), P("21"), P("132"), P("1243")}
    assert normalized_blocks(P("2341")) == {P("1"), P("12"), P("123"), P("2341")}


def test_pattern_at():
    assert pattern_at(P("546312"), (1, 3)) == P("213")
    assert pattern_at(P("546312"), (4, 6)) == P("312")


def test_antisymmetry_small():
    check_pattern_order_antisymmetry(nmax=5)


def test_roundtrip_small():
    check_decomposition_roundtrip(nmax=6)


def test_uniqueness_small():
    check_decomposition_uniqueness(nmax=6)


def test_interval_soundness_small():
    check_interval_soundness(nmax=6)


def test_closure_downward_closed_small():
    check_closure_downward_closed(nmax=6)
