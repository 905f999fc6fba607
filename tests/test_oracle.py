import dataclasses
import functools
import hashlib
import itertools
import random
import sys
import time

import pytest

import permspec as ps
from permspec.errors import InvalidInputError
from permspec.oracle import (
    AuditReport,
    _decomposed_closure,
    _Denotations,
    audit_specification,
    class_members,
    closure_members,
    member_of_restriction,
)
from permspec.restrictions import DELTAS, Equation, Restriction, RestrictionTerm, restriction
from props import members_by_contains

P = ps.perm

FIVE_PATTERN = ("1243", "2341", "2413", "41352", "531642")

# SHA-256 of member_lists_text(class_members(basis, 9)), recorded from the
# enumeration that filtered every insertion by a full containment search.
MEMBER_LISTS_SHA256 = {
    ("2413", "3142"): "417272b912c7e1551876ef12cb937b4cc531e2771198d5da8cda6be55aac0cdf",
    FIVE_PATTERN: "4ad2029787a53e405bf2226398a621c744a33c245c87faff437696a337d9bb42",
}

# SHA-256 of member_lists_text(closure_members(simples, 8)), recorded from the
# enumeration that kept no decompositions.
CLOSURE_LISTS_SHA256 = {
    (): "d051da94cf36c50a12dee3937a622f8d28d4802aedf2ce5ff26817a3acb35994",
    ("3142",): "6ae187a676c7209ffa7023783c6c796df6d45391d44279852559745ebcf7d1da",
    ("3142", "41352"): "fa8e3c37e2e5784cbab5cf449f0624cc0d2483793afdce441723565be547f3f4",
}

REFERENCE_BASES = {
    "21": ("21",),
    "132": ("132",),
    "2413-3142": ("2413", "3142"),
    "five-pattern": FIVE_PATTERN,
    "with-1": ("231", "1"),
    "duplicated": ("132", "2413", "132"),
    "longer-than-7": ("4321", "12345678"),
}


def R(delta="", avoid=(), contain=()):
    return restriction(delta, [P(a) for a in avoid], [P(c) for c in contain])


def test_enumerate_fixtures():
    assert ps.enumerate_class([P("21")], 4) == [P("1234")]
    assert len(ps.enumerate_class([P("132")], 4)) == 14
    assert len(ps.enumerate_class([P("2413"), P("3142")], 4)) == 22


def member_lists_text(members):
    return "\n".join(
        f"{n}: " + ",".join(p.compact() for p in members[n]) for n in sorted(members)
    )


@pytest.mark.parametrize("basis", list(MEMBER_LISTS_SHA256), ids="-".join)
def test_member_lists_are_pinned(basis):
    members = class_members([P(b) for b in basis], 9)
    digest = hashlib.sha256(member_lists_text(members).encode()).hexdigest()
    assert digest == MEMBER_LISTS_SHA256[basis]


@pytest.mark.parametrize(
    "simples", list(CLOSURE_LISTS_SHA256), ids=lambda s: "-".join(s) or "no-simples"
)
def test_closure_lists_are_pinned(simples):
    members = closure_members([P(s) for s in simples], 8)
    digest = hashlib.sha256(member_lists_text(members).encode()).hexdigest()
    assert digest == CLOSURE_LISTS_SHA256[simples]


def _closure_by_insertion(simples, nmax):
    """The referee for `_decomposed_closure`: the new maximum inserted at
    every slot of every member of the level below, each candidate kept when
    `decompose` finds an allowed root and children already kept."""
    allowed = {ps.PLUS, ps.MINUS, *simples}
    levels = {0: [], 1: [(ps.ONE, None, ())]}
    known = {ps.ONE}
    for n in range(2, nmax + 1):
        levels[n] = []
        for parent, _, _ in levels[n - 1]:
            for t in range(n):
                p = ps.Permutation(parent[:t] + (n,) + parent[t:])
                root, kids = ps.decompose(p)
                if root in allowed and all(k in known for k in kids):
                    levels[n].append((p, root, kids))
        known.update(p for p, _, _ in levels[n])
    return {n: levels[n] for n in range(nmax + 1)}


@pytest.mark.parametrize(
    "simples",
    [(), ("3142",), ("3142", "41352"), ("2413", "3142", "24153")],
    ids=lambda s: "-".join(s) or "no-simples",
)
def test_closure_built_from_inflations_matches_the_insertion_referee(simples):
    ss = [P(s) for s in simples]
    levels, slots = _decomposed_closure(ss, 8)
    want = _closure_by_insertion(ss, 8)
    # the same members, roots and children, in the same order
    assert levels == want
    assert all(type(p) is ps.Permutation for level in levels.values() for p, _, _ in level)
    # a member's mask has a bit per slot where inserting the next maximum stays in the closure
    masks = {}
    for n in range(1, 9):
        for p, _, _ in want[n]:
            t = p.index(n)
            q = p[:t] + p[t + 1 :]
            masks[q] = masks.get(q, 0) | 1 << t
    assert slots == masks


def test_every_closure_member_decomposes_as_it_was_built():
    levels, _ = _decomposed_closure([P("3142")], 9)
    assert [len(levels[n]) for n in range(10)] == [0, 1, 2, 6, 23, 102, 492, 2498, 13130, 70800]
    for n in range(2, 10):
        for p, root, kids in levels[n]:
            assert ps.decompose(p) == (root, kids)


def test_closure_sizes_below_one_match_class_members():
    assert closure_members([], 0) == class_members([], 0) == {0: []}
    with pytest.raises(InvalidInputError):
        closure_members([], -3)


@pytest.mark.parametrize("basis", list(REFERENCE_BASES.values()), ids=list(REFERENCE_BASES))
def test_members_match_filtered_permutations(basis):
    patterns = [P(b) for b in basis]
    members = class_members(patterns, 7)
    assert members[0] == []
    for n in range(1, 8):
        every = map(P, itertools.permutations(range(1, n + 1)))
        want = {q for q in every if all(ps.avoids(q, b) for b in patterns)}
        assert len(set(members[n])) == len(members[n])
        assert set(members[n]) == want


# Every single pattern of size 2-4 puts beta's maximum, and the maximum of
# beta without it, at each end and in between.
SINGLE_PATTERNS = [
    (ps.Permutation(v),) for k in (2, 3, 4) for v in itertools.permutations(range(1, k + 1))
]


def _seeded_bases(count=20, seed=28):
    rng = random.Random(seed)

    def pattern():
        values = list(range(1, rng.randint(3, 6) + 1))
        rng.shuffle(values)
        return ps.Permutation(values)

    return [tuple(pattern() for _ in range(rng.randint(2, 3))) for _ in range(count)]


# patterns of size 0 and 1 occur at levels 0 and 1, which no search reaches
SMALL_PATTERN_BASES = [
    (),
    (ps.EMPTY,),
    (P("1"),),
    (P("12"), P("21")),
    (P("1"), P("132")),
    (ps.EMPTY, P("21")),
    (P("12"), P("231")),
    (P("21"), P("123"), P("312")),
]

ALL_PERMUTATIONS = {
    n: [ps.Permutation(v) for v in itertools.permutations(range(1, n + 1))] for n in range(8)
}


@functools.cache
def _containing(beta):
    """The permutations of size at most 7 that contain beta."""
    return frozenset(
        q for level in ALL_PERMUTATIONS.values() for q in level if ps.contains(q, beta)
    )


@pytest.mark.parametrize(
    "basis",
    SINGLE_PATTERNS + _seeded_bases() + SMALL_PATTERN_BASES,
    ids=lambda basis: "-".join(p.compact() or "empty" for p in basis) or "no-patterns",
)
def test_members_match_brute_force(basis):
    members = class_members(basis, 7)
    for n, level in ALL_PERMUTATIONS.items():
        want = [q for q in level if n and not any(q in _containing(b) for b in basis)]
        assert sorted(members[n]) == want
    for nmax in range(4):
        assert class_members(basis, nmax) == {n: members[n] for n in range(nmax + 1)}


@pytest.mark.parametrize(
    "pattern, deepest",
    [("21", ps.Permutation(range(1, 2001))), ("12", ps.Permutation(range(2000, 0, -1)))],
    ids=["21", "12"],
)
def test_deep_levels_stay_cheap(pattern, deepest):
    # one member per level: a member's blocked slots pass to its child, so
    # no level searches a 2000-entry permutation
    start = time.perf_counter()
    members = class_members([P(pattern)], 2000)
    elapsed = time.perf_counter() - start
    assert members[2000] == [deepest]
    assert elapsed < 3.0, f"class_members to 2000 took {elapsed:.2f} s"


def test_negative_sizes_are_domain_errors(av132_spec, av132_basis):
    for enumerate_up_to in (class_members, ps.enumerate_class, ps.simples_in_class):
        with pytest.raises(InvalidInputError):
            enumerate_up_to(av132_basis.patterns, -1)
    assert class_members(av132_basis.patterns, 0) == {0: []}
    assert ps.enumerate_class(av132_basis.patterns, 0) == []
    for nmax in (0, -3):
        with pytest.raises(InvalidInputError):
            audit_specification(av132_spec, av132_basis.patterns, nmax)


def test_members_are_hereditary():
    members = class_members([P("132")], 6)
    for n in range(2, 7):
        smaller = set(members[n - 1])
        for p in members[n]:
            for skip in range(n):
                vals = p.values[:skip] + p.values[skip + 1 :]
                assert ps.normalize(vals) in smaller


# the simple sets whose closures restriction members are grown over
MEMBER_SIMPLES = [(), ("3142",), ("2413", "3142"), ("3142", "41352")]


def _seeded_restrictions(seed, per_delta=10):
    """Restrictions of every delta avoiding up to three and containing up to
    two patterns of size 1-5, each as drawn and in canonical form."""
    rng = random.Random(seed)

    def side(most):
        out = []
        for _ in range(rng.randint(0, most)):
            values = list(range(1, rng.randint(1, 5) + 1))
            rng.shuffle(values)
            out.append(ps.Permutation(values))
        return tuple(out)

    drawn = []
    for delta in DELTAS:
        for _ in range(per_delta):
            avoid, contain = side(3), side(2)
            drawn += [Restriction(delta, avoid, contain), restriction(delta, avoid, contain)]
    return drawn


MEMBER_CASES = [(simples, 7, 10) for simples in MEMBER_SIMPLES] + [(("3142",), 8, 3)]


@pytest.mark.parametrize(
    "simples, nmax, per_delta",
    MEMBER_CASES,
    ids=[f"{'-'.join(s) or 'no-simples'}-to-{n}" for s, n, _ in MEMBER_CASES],
)
def test_members_match_the_contains_filter(simples, nmax, per_delta):
    den = _Denotations([P(s) for s in simples], nmax)
    for r in _seeded_restrictions(len(simples) + nmax, per_delta):
        for n in range(nmax + 1):
            assert den.members(r, n) == members_by_contains(den, r, n), (r, n)


@pytest.mark.parametrize("simples", [("3142",), ("3142", "41352")], ids="-".join)
def test_each_single_pattern_grows_the_contains_filter(simples):
    # every pattern of size 2-4, alone on either side, drives each of the
    # four ways `_child_masks` places a blocked range over the closure
    den = _Denotations([P(s) for s in simples], 7)
    for (e,) in SINGLE_PATTERNS:
        for r in (Restriction("", (e,), ()), Restriction("", (), (e,))):
            for n in range(8):
                assert den.members(r, n) == members_by_contains(den, r, n), (r, n)


def test_closure_of_a_set_missing_a_simple_pattern_is_refused():
    # 246135 without its maximum is 24135, whose prime node 2413 the set
    # lacks, so its closure would miss 246135 itself; the membership tests
    # refuse the set too, so no view of the closure takes it
    for grow in (
        closure_members,
        _Denotations,
        lambda simples, n: ps.in_closure(P("246135"), simples),
        lambda simples, n: member_of_restriction(P("246135"), Restriction("", (), ()), simples),
    ):
        with pytest.raises(InvalidInputError, match="2 4 1 3 is a simple pattern of 2 4 6 1 3 5"):
            grow([P("246135")], 6)
    simples = [P("2413"), P("246135")]
    want = {p for p in ALL_PERMUTATIONS[6] if ps.in_closure(p, simples)}
    assert P("246135") in want
    assert set(closure_members(simples, 6)[6]) == want


def test_members_at_the_smallest_sizes():
    # 1 on either side, and patterns longer than nmax
    patterns = [P("1"), P("21"), P("132"), P("2413"), P("31524")]
    sides = [()] + [(p,) for p in patterns]
    for nmax in (0, 1, 2):
        den = _Denotations([P("3142")], nmax)
        for delta, avoid, contain in itertools.product(DELTAS, sides, sides):
            r = Restriction(delta, avoid, contain)
            for n in range(nmax + 1):
                assert den.members(r, n) == members_by_contains(den, r, n), (r, n)


def test_simples_fixtures():
    big = [P(x) for x in ("1243", "2341", "2413", "41352", "531642")]
    assert ps.simples_in_class(big, 8) == {P("3142")}
    assert ps.simples_in_class([P("2413"), P("3142")], 8) == set()
    assert ps.simples_in_class([P("123456789")], 4) == {P("2413"), P("3142")}


def test_simples_monotone_in_bound():
    basis = [P("1243"), P("2413"), P("531642"), P("41352")]
    prev = set()
    for bound in (4, 5, 6, 7):
        cur = ps.simples_in_class(basis, bound)
        assert prev <= cur
        prev = cur
    assert prev == {P("3142")}


def test_member_of_restriction_fixtures():
    assert member_of_restriction(P("1"), R("+", ("21",)), [])
    assert not member_of_restriction(P("12"), R("+"), [])
    assert member_of_restriction(P("546312"), R("", (), ("21",)), [P("3142")])
    assert not member_of_restriction(P("3142"), R(), [])
    assert member_of_restriction(P("3142"), R(), [P("3142")])


@pytest.fixture(scope="module")
def five_pattern_draws(big_spec):
    return ps.sample_many(ps.build_tables(big_spec, 60), 60, 20, random.Random(60))


def test_checking_a_draw_keeps_no_reference_to_it(big_spec, big_basis, five_pattern_draws):
    # a new object, so nothing cached before this test can refer to it
    host = ps.Permutation(tuple(five_pattern_draws[0]))
    before = sys.getrefcount(host)
    for b in big_basis.patterns:
        assert not ps.contains(host, b)
        assert ps.avoids(host, b)
    assert member_of_restriction(host, big_spec.root, big_spec.simples)
    assert sys.getrefcount(host) == before


def test_large_draws_are_checked_against_the_basis(big_spec, big_basis, five_pattern_draws):
    start = time.perf_counter()
    for d in five_pattern_draws:
        assert member_of_restriction(d, big_spec.root, big_spec.simples)
        assert all(ps.avoids(d, b) for b in big_basis.patterns)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"checking 20 draws of size 60 took {elapsed:.2f} s"


def test_audit_clean_on_av132(av132_spec, av132_basis):
    report = audit_specification(av132_spec, av132_basis.patterns, 7)
    assert report.passed, str(report)
    assert report.equations_checked == 5


def test_audit_runs_no_containment_search(
    monkeypatch, big_spec, big_basis, av132_spec, av132_basis
):
    def refuse(*args):
        raise AssertionError("the audit searched for a pattern")

    monkeypatch.setattr("permspec.oracle.contains", refuse)
    for spec, basis in ((big_spec, big_basis), (av132_spec, av132_basis)):
        report = audit_specification(spec, basis.patterns, 7)
        assert report.passed, str(report)


def test_audit_flags_forged_disjointness(sep_subclass_basis, no_simples):
    system = ps.ambiguous_system(sep_subclass_basis, no_simples)
    lhs = system.root
    eq = system.equations[lhs]
    assert not eq.disjoint
    system.equations[lhs] = Equation(eq.lhs, eq.has_one, eq.terms, disjoint=True)
    report = audit_specification(system, sep_subclass_basis.patterns, 4)
    assert not report.passed
    assert any("overlapping" in v and "size 2" in v for v in report.violations)
    assert any("1 2" in v for v in report.violations)


def test_overlap_witness_is_the_least_shared_member(no_simples):
    # the witness is the least shared member in sort_key order, whatever the
    # order in which a set of permutations iterates (it once named 1 3 2 at
    # size 3)
    basis = ps.basis_of([P(x) for x in ("2413", "3142", "21354", "12453")])
    system = ps.ambiguous_system(basis, no_simples)
    eq = system.equations[system.root]
    system.equations[system.root] = Equation(eq.lhs, eq.has_one, eq.terms, disjoint=True)
    report = audit_specification(system, basis.patterns, 5)
    assert report.violations == [
        f"size {n}: overlapping terms in [C<12453,21354>]: {ps.Permutation(range(1, n + 1))} "
        "belongs to both plus[C+<12>, C<132>] and plus[C+<12,21>, C<1342,21354>]"
        for n in range(2, 6)
    ]


def test_audit_flags_incompleteness():
    basis = ps.basis_of([P("21")])
    lhs = restriction("", [P("21")])
    system = ps.EquationSystem((), lhs)
    system.equations[lhs] = Equation(lhs, False, (), disjoint=True)
    report = audit_specification(system, basis.patterns, 3)
    assert not report.passed
    assert any("mismatch" in v for v in report.violations)


def test_audit_flags_one_wrong_child(av132_spec, av132_basis):
    root = av132_spec.root
    eq = av132_spec.equations[root]
    [plus_term] = [t for t in eq.terms if t.root == ps.PLUS]
    assert plus_term.children[1] != root
    # C<132> in place of the second child C<21> also admits 1 (+) 21 = 132
    wrong = RestrictionTerm(ps.PLUS, (plus_term.children[0], root))
    terms = tuple(wrong if t == plus_term else t for t in eq.terms)
    system = dataclasses.replace(av132_spec, equations=dict(av132_spec.equations))
    system.equations[root] = Equation(eq.lhs, eq.has_one, terms, eq.disjoint)
    report = audit_specification(system, av132_basis.patterns, 5)
    assert [v[: v.index(";")] for v in report.violations] == [
        f"size {n}: rhs of [{root}] mismatch" for n in (3, 4, 5)
    ]
    assert report.violations[0].endswith(f"missing [], extra [{P('132')!r}]")


def test_audit_names_a_witness_when_the_class_disagrees(no_simples):
    # the separable closure's size-3 level holds 123, which Av(123) lacks
    spec = ps.specification(ps.basis_of([P("2413"), P("3142")]), no_simples)
    report = audit_specification(spec, [P("123")], 3)
    [line] = report.violations
    assert line.startswith("size 3: class restriction")
    assert f"extra [{P('123')!r}]" in line


def test_audit_union_semantics_for_ambiguous_systems(big_basis, big_simples):
    system = ps.ambiguous_system(big_basis, big_simples)
    report = audit_specification(system, big_basis.patterns, 6)
    assert report.passed, str(report)


def test_report_formatting():
    rep = AuditReport(nmax=5)
    rep.equations_checked = 2
    assert "no violations" in str(rep)
    rep.violations.append("boom")
    assert "boom" in str(rep)
