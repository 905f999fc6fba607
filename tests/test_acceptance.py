"""Acceptance suite: one test per criterion, each printing a PASS line on
success (run with -s to see them; a failure shows up as a failed test).

Shared specifications come from session fixtures; every expected value is
either a published constant or recomputed here by an independent route
(series division, direct enumeration, exhaustive search).
"""

import random
import time
from fractions import Fraction

from scipy.stats import chi2

import permspec as ps
from reference_systems import AV132_EXPECTED, SEP_SUBCLASS_EXPECTED, system_as_dict
from props import (
    check_add_constraints_semantics,
    check_add_mandatory_semantics,
    check_canonical_form_denotation,
    check_closure_downward_closed,
    check_complement_restriction_cover,
    check_complement_term_cover,
    check_decomposition_roundtrip,
    check_decomposition_uniqueness,
    check_embedding_completeness,
    check_embedding_completeness_exhaustive,
    check_embedding_invariants,
    check_group_expansion_cover,
    check_intersection_denotation,
    check_interval_soundness,
    check_pattern_order_antisymmetry,
    check_subset_sufficient_counts,
    check_system_structure,
)
from test_embeddings import load_reference_embeddings

P = ps.perm


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_embedding_fixture():
    got = set(ps.all_embeddings(P("546312"), P("3142")))
    want = set(load_reference_embeddings())
    assert len(want) == 12
    assert got == want
    report("1 (embedding fixture)", "all 12 embeddings of 546312 into 3142 reproduced")


def test_criterion_2_closed_form_coefficients(big_spec):
    num = [0, 1, -7, 20, -28, 20, -7, 1] + [0] * 13
    den = [1, -9, 32, -59, 62, -37, 13, -2] + [0] * 13
    taylor = [0] * 21
    for n in range(21):
        taylor[n] = num[n] - sum(den[j] * taylor[n - j] for j in range(1, n + 1))
    counts = ps.class_counts(big_spec, 20)
    assert counts == taylor
    report("2 (closed form)", f"counts 1..20 match the rational series; c20={counts[20]}")


FIXTURE_BASES = [
    ("21",),
    ("132",),
    ("2413", "3142"),
    ("2413", "3142", "2143"),
    ("1243", "2413", "531642", "41352"),
    ("1243", "2341", "2413", "41352", "531642"),
]


def fixture_inputs(patterns):
    basis = ps.basis_of([P(x) for x in patterns])
    simples = ps.simple_set(ps.simples_in_class(basis.patterns, 7))
    return basis, simples


def test_criterion_3_oracle_equivalence():
    for patterns in FIXTURE_BASES:
        basis, simples = fixture_inputs(patterns)
        spec = ps.specification(basis, simples)
        counts = ps.class_counts(spec, 9)
        members = ps.class_members(basis.patterns, 9)
        for n in range(1, 10):
            assert counts[n] == len(members[n]), (patterns, n)
    report(
        "3 (oracle equivalence)",
        f"coefficients to n=9 equal direct enumeration for {len(FIXTURE_BASES)} bases",
    )


def test_criterion_4_specification_audits(av132_spec, av132_basis,
                                          sep_subclass_spec, sep_subclass_basis,
                                          big_spec, big_basis):
    cases = [
        (av132_spec, av132_basis.patterns, "Av(132)", 8),
        (sep_subclass_spec, sep_subclass_basis.patterns, "Av(2413,3142,2143)", 8),
        (big_spec, big_basis.patterns, "five-pattern class", 9),
        (
            ps.substitution_closed_spec(ps.simple_set([])),
            [P("2413"), P("3142")],
            "separable",
            8,
        ),
    ]
    for spec, patterns, name, nmax in cases:
        assert spec.all_disjoint, name
        rep = ps.audit_specification(spec, patterns, nmax)
        assert rep.passed, f"{name}: {rep}"
    report(
        "4 (audit)",
        "disjointness and completeness hold to size 8 on all fixtures, "
        "to size 9 on the five-pattern class",
    )


def test_criterion_5_reference_system_reproduction(av132_spec, sep_subclass_spec, big_spec):
    assert len(av132_spec.equations) == 5
    assert system_as_dict(av132_spec) == AV132_EXPECTED
    assert len(sep_subclass_spec.equations) == 6
    assert system_as_dict(sep_subclass_spec) == SEP_SUBCLASS_EXPECTED
    count = len(big_spec.equations)
    assert 10 <= count <= 40
    diff = "exact match" if count == 16 else "differs"
    report(
        "5 (system reproduction)",
        f"small fixtures match term-for-term; five-pattern class has {count} equations "
        f"(16-equation target: {diff})",
    )


def test_criterion_6_substitution_closed_quadratic():
    sep = ps.simple_set([])
    assert ps.quadratic_residual(sep, 12) == [0] * 13
    assert ps.class_counts(ps.substitution_closed_spec(sep), 5) == [0, 1, 2, 6, 22, 90]
    bigger = ps.simple_set([P("2413"), P("3142"), P("24153")])
    assert ps.quadratic_residual(bigger, 12) == [0] * 13
    report("6 (quadratic)", "residuals vanish through z^12; separable counts 1,2,6,22,90")


def test_criterion_7_sampler_exactness(av132_spec, av132_basis, big_spec, big_basis):
    cases = [
        (av132_spec, av132_basis.patterns, 3, "Av(132)"),
        (big_spec, big_basis.patterns, 4, "five-pattern class"),
    ]
    for spec, patterns, chi_size, name in cases:
        tables = ps.build_tables(spec, 7)
        for n in range(3, 7):
            members = ps.enumerate_class(patterns, n)
            want = Fraction(1, len(members))
            for sigma in members:
                assert ps.derivation_probability(tables, sigma) == want, (name, sigma)
        # frequency check at a size with a handful of members
        members = ps.enumerate_class(patterns, chi_size)
        k = len(members)
        assert 5 <= k <= 50
        rng = random.Random(2024)
        freq = {m: 0 for m in members}
        draws = 20_000
        for _ in range(draws):
            p = ps.sample(tables, chi_size, rng)
            assert all(ps.avoids(p, beta) for beta in patterns)
            freq[p] += 1
        expected = draws / k
        statistic = sum((c - expected) ** 2 / expected for c in freq.values())
        cutoff = chi2.ppf(1 - 1e-3, df=k - 1)
        assert statistic < cutoff, (name, statistic, cutoff)
    report(
        "7 (sampler)",
        "derivation probabilities are exactly 1/c_n and 20000-sample frequencies "
        "pass chi-square at 1e-3",
    )


def test_criterion_8_property_suites(av132_spec, av132_basis,
                                     sep_subclass_spec, sep_subclass_basis,
                                     big_spec, big_basis):
    bullets = [
        ("pattern order antisymmetry (n<=6)", lambda: check_pattern_order_antisymmetry(6)),
        ("decomposition roundtrip (n<=8)", lambda: check_decomposition_roundtrip(8)),
        ("decomposition uniqueness (n<=8)", lambda: check_decomposition_uniqueness(8)),
        ("interval soundness (n<=8)", lambda: check_interval_soundness(8)),
        ("closure downward closed (n<=7)", lambda: check_closure_downward_closed(7)),
        ("embedding invariants (sizes<=4)", lambda: check_embedding_invariants(4, 4)),
        (
            "embedding completeness (exhaustive small grid)",
            lambda: check_embedding_completeness_exhaustive(3, 3, 2),
        ),
        (
            "embedding completeness (seeded, stated bounds)",
            lambda: check_embedding_completeness(4, 4, 3, trials=400),
        ),
        ("complement cover for restrictions (n<=7)", lambda: check_complement_restriction_cover(7)),
        ("complement cover for terms (n<=7)", lambda: check_complement_term_cover(7)),
        ("canonical form preserves denotations (n<=7)", lambda: check_canonical_form_denotation(7)),
        ("intersection denotes intersection (n<=7)", lambda: check_intersection_denotation(7)),
        ("inclusion test bounds counts (n<=8)", lambda: check_subset_sufficient_counts(8)),
        (
            "avoidance propagation semantics (n<=8)",
            lambda: check_add_constraints_semantics(8, 4),
        ),
        (
            "containment propagation semantics (n<=7)",
            lambda: check_add_mandatory_semantics(7, 4),
        ),
        ("per-root disjoint expansion cover (n<=7)", lambda: check_group_expansion_cover(7)),
        (
            "system structure (completeness, blocks, atom law)",
            lambda: (
                check_system_structure(av132_spec, av132_basis),
                check_system_structure(sep_subclass_spec, sep_subclass_basis),
                check_system_structure(big_spec, big_basis),
            ),
        ),
    ]
    for name, bullet in bullets:
        start = time.perf_counter()
        bullet()
        print(f"  property: {name} ok ({time.perf_counter() - start:.1f} s)")
    report("8 (property suites)", f"{len(bullets)} invariant groups green at stated bounds")
