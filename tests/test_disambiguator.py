import hashlib
import importlib

import pytest

import permspec as ps
from permspec.errors import InvalidInputError
from permspec import restrictions
from permspec.restrictions import (
    RestrictionTerm,
    intersect_restrictions,
    meet_provably_empty,
    provably_empty,
    restriction,
    root_rank,
)
from permspec.system import prune_terms
from reference_systems import AV132_EXPECTED, BIG_EXPECTED, SEP_SUBCLASS_EXPECTED, system_as_dict
from props import check_add_mandatory_semantics, check_group_expansion_cover, check_system_structure

P = ps.perm
# the module, not the function of the same name that permspec exports
dis = importlib.import_module("permspec.disambiguate")


def R(delta="", avoid=(), contain=()):
    return restriction(delta, [P(a) for a in avoid], [P(c) for c in contain])


def term_strs(eq_or_terms):
    terms = eq_or_terms.terms if hasattr(eq_or_terms, "terms") else eq_or_terms
    return {str(t) for t in terms}


def test_add_mandatory_plus_12_collapses():
    t = RestrictionTerm(ps.PLUS, (R("+"), R()))
    out = ps.add_mandatory(t, P("12"))
    assert set(out) == {t}


def test_add_mandatory_matches_naive_union():
    t = RestrictionTerm(P("3142"), (R(),) * 4)
    g = P("546312")
    naive = []
    for emb in ps.all_embeddings(g, t.root):
        children = []
        for block in emb:
            if len(block) >= 2:
                children.append(ps.intersect_restrictions(R(), R(contain=(block.compact(),))))
            else:
                children.append(R())
        naive.append(RestrictionTerm(t.root, tuple(children)))
    expected_member = RestrictionTerm(
        t.root, (R(contain=("21",)), R(), R(), R(contain=("312",)))
    )
    assert expected_member in naive
    assert set(ps.add_mandatory(t, g)) == set(prune_terms(tuple(naive)))


@pytest.mark.parametrize("build", [ps.specification, ps.ambiguous_system])
def test_simple_containing_a_basis_pattern_is_refused(build):
    # 2413 is in the basis, so the class has no simple 2413 and counting it
    # would add members of size 4 that the class does not have
    basis = ps.basis_of([P("2413"), P("3142"), P("21354")])
    with pytest.raises(InvalidInputError, match="2413 contains the basis pattern 2413"):
        build(basis, ps.simple_set([P("2413")]))
    # a proper pattern counts too: 2413 has 243, a copy of 132
    with pytest.raises(InvalidInputError, match="2413 contains the basis pattern 132"):
        build(ps.basis_of([P("132")]), ps.simple_set([P("2413")]))


def test_add_mandatory_rejects_tiny_patterns():
    t = RestrictionTerm(ps.PLUS, (R("+"), R()))
    with pytest.raises(InvalidInputError):
        ps.add_mandatory(t, P("1"))


def test_eqn_for_restriction_fixture_with_contain(big_simples):
    eq = ps.eqn_for_restriction("", [P("132"), P("2341")], [P("21")], big_simples)
    assert not eq.has_one
    assert term_strs(eq) == {
        "plus[C+<132,2341>(21), C<21>]",
        "minus[C-<123,132>, C<132,2341>]",
    }


def test_eqn_for_restriction_atom_only():
    eq = ps.eqn_for_restriction("+", [P("21")], [], ps.simple_set([]))
    assert eq.has_one and eq.terms == ()
    eq2 = ps.eqn_for_restriction("", [P("21"), P("12")], [], ps.simple_set([]))
    assert eq2.has_one and eq2.terms == ()


def test_eqn_for_restriction_provably_empty_lhs():
    eq = ps.eqn_for_restriction("", [P("12")], [P("123")], ps.simple_set([]))
    assert not eq.has_one and eq.terms == () and eq.disjoint


def test_disambiguate_first_equation_of_sep_subclass(no_simples):
    raw = ps.eqn_for_restriction("", [P("2143")], [], no_simples)
    assert term_strs(raw) == {
        "plus[C+<2143>, C<21>]",
        "plus[C+<21>, C<2143>]",
        "minus[C-<2143>, C<2143>]",
    }
    out = ps.disambiguate(raw)
    assert out.disjoint
    assert term_strs(out) == {
        "plus[C+<2143>(21), C<21>]",
        "plus[C+<21>, C<2143>(21)]",
        "plus[C+<21>, C<21>]",
        "minus[C-<2143>, C<2143>]",
    }


def test_disambiguate_big_class_first_equation(big_simples):
    raw = ps.eqn_for_restriction("", [P("1243"), P("2341")], [], big_simples)
    out = ps.disambiguate(raw)
    assert term_strs(out) == {
        "plus[C+<1243,2341>(12), C<21>]",
        "plus[C+<12>, C<132,2341>(21)]",
        "plus[C+<12>, C<21>]",
        "minus[C-<123>, C<1243,2341>]",
        "3142[C<12>, C<12>, C<12>, C<132,2341>]",
    }


def test_disambiguate_keeps_unambiguous_equation(av132_basis, no_simples):
    raw = ps.eqn_for_restriction("", [P("132")], [], no_simples)
    out = ps.disambiguate(raw)
    assert out.disjoint
    assert term_strs(out) == term_strs(raw) == {
        "plus[C+<132>, C<21>]",
        "minus[C-<132>, C<132>]",
    }


def test_specification_av132_exact(av132_spec):
    assert system_as_dict(av132_spec) == AV132_EXPECTED


def test_specification_sep_subclass_exact(sep_subclass_spec):
    assert system_as_dict(sep_subclass_spec) == SEP_SUBCLASS_EXPECTED


def test_specification_big_class_exact(big_spec, big_basis):
    assert len(big_spec.equations) == 16
    assert system_as_dict(big_spec) == BIG_EXPECTED
    check_system_structure(big_spec, big_basis)
    assert big_spec.all_disjoint


def test_specification_is_deterministic(big_basis, big_simples, big_spec):
    from permspec import jsonio

    again = ps.specification(big_basis, big_simples)
    assert jsonio.dumps_system(again) == jsonio.dumps_system(big_spec)


# a class of 107 equations, with simples of size 4 to 7
SEVEN_PATTERNS = ("2413", "1432", "41523", "31245", "561243", "513426", "253641")
FIVE_SIMPLES = ("3142", "41352", "514263", "531462", "6142573")

# SHA-256 of dumps_system for (specification, ambiguous_system), keyed by
# (basis, simples); a change to the construction that alters any byte of
# either file must update these.
SYSTEM_JSON_SHA256 = {
    (("132",), ()): (
        "07bd99d96cc2b42d5a29547e1c929e5a791d4fdec549dd9d54b9be8447746a7a",
        "07bd99d96cc2b42d5a29547e1c929e5a791d4fdec549dd9d54b9be8447746a7a",
    ),
    (("2413", "3142", "2143"), ()): (
        "4dffa4539fb7092bdc889d1c420efc7a962be80727beff462d531f7255627b15",
        "af3ba0dc5c2e8ebd810797d0a098a6161be0a2225db4b4cfb45ab22edf7ca49c",
    ),
    (("1243", "2341", "2413", "41352", "531642"), ("3142",)): (
        "e76a877d56b195d7bdb45b2d3d581d028d47ef69d0b39f39d298dcfdc060f79e",
        "ee3555828ce57758f97326f0d5d31758a1e79905e643e8f0ceb7fecdf51cafb7",
    ),
    (("1243", "2341", "2413", "531642"), ("3142", "41352")): (
        "3a8058d934c41632f2564f0b42e827f95d33632d370cea9ff23cef3357ac17d7",
        "a04f8ab8120afe3ffedab563d97d5ae8d15d4904a8ff04b3ebe1dd6cac1ed6f8",
    ),
    (("2413", "3142", "21354", "12453"), ()): (
        "bb1a888927351af5cadd746f53d33b1a5e31647c4cf9da9ff30cf4f64fb0d81a",
        "08d78a0ceec6578f1844d0618999bdaf3f4bed4761d0173a6d44b9bb5dad4223",
    ),
    (("2413", "3142", "21453", "12354"), ()): (
        "c99c0455f4a4a5c54e739f9c8750644846ce859b6fb6ca8b87f9965c0f6bc846",
        "39b7ccec63e9288a871f3fa32431edcb873c841dc38a6c67df78fa5e9df1f7be",
    ),
    (("2413", "3142", "21543", "12453"), ()): (
        "46df8245a1e90a219fb8707b64f6fbb0fe315e26c774618763ac74a5364c27bb",
        "a76e5d548003e33c8a9627c78544643ae097c0962ab47d3d4d4f3c63cdcd28dc",
    ),
    (SEVEN_PATTERNS, FIVE_SIMPLES): (
        "a3ae0ace99d56d7f112615482cd00990eea8deb0bd94b3b51bbf8c8a8e4fd856",
        "07e1017e86b1278e72921e7b6f5179eecd53617982e9e670ac1cafb79af5d473",
    ),
    (
        ("2413", "1234", "42531", "53421", "32415", "254316"),
        ("3142", "41352", "415263", "415362", "514263", "531462", "5164273", "6415273"),
    ): (
        "fbb965a65b92d9fe867d05a5ad893130b5707b3714c846da100541bc5421b527",
        "c78c868c62b063f13fbea0419b75ec0d2737faa4f3ceeb6591df43953fe6fd47",
    ),
    (("2413", "3142", "21354", "45312"), ()): (
        "dafc185408d00b23b874b22e7ce2a1867ac88d026ecc13ecf5a3cd588dca0669",
        "565b472cb15c586cfed2d0da0db64561cc216d7d8efbe2203b6853d4a27661ef",
    ),
}


@pytest.mark.parametrize("cls", list(SYSTEM_JSON_SHA256), ids=lambda cls: "-".join(cls[0]))
def test_system_json_is_pinned(cls):
    from permspec import jsonio

    basis = ps.basis_of([P(x) for x in cls[0]])
    simples = ps.simple_set([P(x) for x in cls[1]])
    got = tuple(
        hashlib.sha256(jsonio.dumps_system(build(basis, simples)).encode()).hexdigest()
        for build in (ps.specification, ps.ambiguous_system)
    )
    assert got == SYSTEM_JSON_SHA256[cls]


def test_disambiguation_builds_no_complement_it_does_not_meet(monkeypatch):
    """Meets are pruned child by child before any term is built, so the
    107-equation class builds a few thousand terms, not the 473,687 of its
    groups' complements in full."""
    built = []
    post_init = RestrictionTerm.__post_init__

    def counted(t):
        built.append(t)
        post_init(t)

    dis._disambiguate_group.cache_clear()
    monkeypatch.setattr(RestrictionTerm, "__post_init__", counted)
    spec = ps.specification(
        ps.basis_of([P(x) for x in SEVEN_PATTERNS]), ps.simple_set([P(x) for x in FIVE_SIMPLES])
    )
    monkeypatch.undo()
    assert len(spec.equations) == 107
    assert len(built) < 20_000
    assert ps.class_counts(spec, 8)[1:] == [1, 2, 6, 22, 86, 332, 1236, 4466]


def test_add_mandatory_semantics_small():
    check_add_mandatory_semantics(nmax=6, gmax=3)


def test_group_expansion_cover_small():
    check_group_expansion_cover(nmax=6)


HARD_BASES = (
    ("2413", "3142", "21354", "12453"),
    ("2413", "3142", "21453", "12354"),
    ("2413", "3142", "21543", "12453"),
    ("2413", "3142", "21354"),
)


@pytest.mark.parametrize("basis", HARD_BASES, ids="-".join)
def test_group_memo_and_pair_test_match_building_every_meet(basis, no_simples, monkeypatch):
    """On every equation: each child meet the expansion tests is provably
    empty by the mask test exactly when the built meet is, and each group's
    memoized parts are a fresh expansion's, in order, and so are the
    specification's terms."""
    spec = ps.specification(ps.basis_of([P(x) for x in basis]), no_simples)
    met = []

    def built_and_tested(a, b):
        got = meet_provably_empty(a, b)
        assert got == provably_empty(intersect_restrictions(a, b)), (a, b)
        met.append(got)
        return got

    monkeypatch.setattr(restrictions, "meet_provably_empty", built_and_tested)
    groups = 0
    for lhs, done in spec.equations.items():
        eq = ps.eqn_for_restriction(lhs.delta, lhs.avoid, lhs.contain, no_simples)
        by_root: dict = {}
        for t in eq.terms:
            by_root.setdefault(t.root, []).append(t)
        fresh = []
        for root in sorted(by_root, key=root_rank):
            group = by_root[root]
            if len(group) == 1:
                fresh += group
                continue
            groups += 1
            parts = list(dis._disambiguate_group.__wrapped__(tuple(group)))
            assert list(dis._disambiguate_group(tuple(group))) == parts, group
            fresh += parts
        assert done.terms == tuple(fresh), lhs
    assert groups and met.count(True) and met.count(False)
