"""End-to-end checks on classes beyond the worked examples: a class whose
simple permutations include one of size 5 (so constraints propagate into a
five-child prime root), and a seeded sweep over random bases.

A brute-force simple search that finds nothing at two consecutive sizes has
found everything: any larger simple permutation contains one smaller by one
or two points, so emptiness propagates upward.  Only bases certified this way
are checked against the oracle.
"""

import itertools
import random
from fractions import Fraction

import pytest

import permspec as ps
from permspec.errors import PermspecError
from permspec.oracle import _simples_certified

P = ps.perm


def certified_simples(patterns, bound=7):
    """Simple permutations up to the bound, or None when the top two sizes
    are not both empty (completeness cannot be certified)."""
    found = ps.simples_in_class(patterns, bound)
    return ps.simple_set(found) if _simples_certified(found, bound) else None


@pytest.fixture(scope="module")
def five_root_class():
    basis = ps.basis_of([P("1243"), P("2341"), P("2413"), P("531642")])
    simples = certified_simples(basis.patterns, 8)
    assert simples is not None
    assert set(simples.simples) == {P("3142"), P("41352")}
    return basis, simples


def test_five_root_class_full_pipeline(five_root_class):
    basis, simples = five_root_class
    spec = ps.specification(basis, simples)
    assert spec.all_disjoint
    assert any(
        t.root == P("41352") for eq in spec.equations.values() for t in eq.terms
    )
    report = ps.audit_specification(spec, basis.patterns, 6)
    assert report.passed, str(report)
    counts = ps.class_counts(spec, 8)
    members = ps.class_members(basis.patterns, 8)
    assert all(counts[n] == len(members[n]) for n in range(1, 9))


def test_five_root_class_sampling(five_root_class):
    basis, simples = five_root_class
    spec = ps.specification(basis, simples)
    tables = ps.build_tables(spec, 25)
    rng = random.Random(5)
    for p in ps.sample_many(tables, 25, 10, rng):
        assert all(ps.avoids(p, beta) for beta in basis.patterns)
    members = ps.enumerate_class(basis.patterns, 5)
    assert all(
        ps.derivation_probability(tables, m) == Fraction(1, len(members))
        for m in members
    )


def _antichain(picks):
    return [p for p in picks if not any(q is not p and ps.contains(p, q) for q in picks)]


def test_random_bases_sweep():
    rng = random.Random(20240810)
    small = [
        ps.Permutation(p) for n in (3, 4) for p in itertools.permutations(range(1, n + 1))
    ]
    tested = 0
    for trial in range(40):
        if trial % 2 == 0:
            picks = [P("2413"), P("3142")] + rng.sample(small, rng.randint(0, 2))
        else:
            picks = rng.sample(small, rng.randint(1, 3))
        try:
            basis = ps.basis_of(_antichain(picks))
        except PermspecError:
            continue
        simples = certified_simples(basis.patterns, 7)
        if simples is None:
            continue
        spec = ps.specification(basis, simples)
        report = ps.audit_specification(spec, basis.patterns, 5)
        assert report.passed, (picks, str(report))
        counts = ps.class_counts(spec, 7)
        members = ps.class_members(basis.patterns, 7)
        assert all(counts[n] == len(members[n]) for n in range(1, 8)), picks
        tested += 1
    assert tested >= 10
