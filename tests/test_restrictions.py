import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest

import permspec as ps
from permspec import perms, restrictions
from permspec.errors import InvalidInputError
from permspec.oracle import member_of_restriction
from permspec.restrictions import (
    Restriction,
    RestrictionTerm,
    provably_empty,
    restriction,
    term_subset_sufficient,
)
from props import (
    check_canonical_form_denotation,
    check_complement_restriction_cover,
    check_complement_term_cover,
    check_intern_table,
    check_intersection_denotation,
    check_mask_decisions,
    check_masks_against_pairs,
    check_subset_sufficient_counts,
    deletions,
    insert_point,
    random_perm,
    random_restrictions,
)

P = ps.perm


def R(delta="", avoid=(), contain=()):
    return restriction(delta, [P(a) for a in avoid], [P(c) for c in contain])


def test_canonicalize_min_filters_avoid():
    assert R(avoid=("1243", "12")) == R(avoid=("12",))
    assert R(avoid=("123", "1234"), contain=("21",)) == R(avoid=("123",), contain=("21",))


def test_canonicalize_keeps_incomparable_contains():
    r = R(contain=("12", "21"))
    assert set(r.contain) == {P("12"), P("21")}


def test_canonicalize_drops_one_from_contain():
    assert R(contain=("1", "21")) == R(contain=("21",))
    # the empty permutation is refused, even next to a pattern that contains it
    with pytest.raises(InvalidInputError):
        restriction("", (), [ps.EMPTY, P("21")])


def test_canonicalize_idempotent_examples():
    for r in (R(avoid=("132",)), R(avoid=("12", "2341"), contain=("21",))):
        assert restriction(r.delta, r.avoid, r.contain) == r


def test_is_empty_sufficient():
    assert ps.is_empty_sufficient(R(avoid=("12",), contain=("132",)))
    assert ps.is_empty_sufficient(R(avoid=("34152",), contain=("364152",)))
    # genuinely empty, but the test cannot see it
    assert not ps.is_empty_sufficient(
        R(avoid=("132", "213", "231", "312"), contain=("12", "21"))
    )


def test_subset_sufficient():
    assert ps.subset_sufficient(R(avoid=("12",)), R(avoid=("1243",)))
    assert ps.subset_sufficient(R(contain=("4321",)), R(contain=("21",)))
    # inclusion holds (left side is empty) but the test cannot see it
    assert not ps.subset_sufficient(
        R(avoid=("34152",), contain=("364152",)), R(avoid=("123",), contain=("132",))
    )
    with pytest.raises(InvalidInputError):
        ps.subset_sufficient(R("+"), R("-"))


def test_intersect_restrictions():
    assert ps.intersect_restrictions(R(avoid=("132",)), R(contain=("21",))) == R(
        avoid=("132",), contain=("21",)
    )
    r = R(avoid=("12",))
    assert ps.intersect_restrictions(r, r) == r
    assert ps.intersect_restrictions(R(avoid=("1243",), contain=("12",)), R(avoid=("132",))) == R(
        avoid=("132",), contain=("12",)
    )


def test_intersect_terms():
    plus_term = RestrictionTerm(ps.PLUS, (R("+"), R()))
    minus_term = RestrictionTerm(ps.MINUS, (R("-"), R()))
    assert ps.intersect_terms(plus_term, minus_term) is None

    t1 = RestrictionTerm(ps.PLUS, (R("+", ("12",)), R(avoid=("132", "2341"))))
    t2 = RestrictionTerm(ps.PLUS, (R("+", ("1243", "2341")), R(avoid=("21",))))
    meet = ps.intersect_terms(t1, t2)
    assert meet == RestrictionTerm(ps.PLUS, (R("+", ("12",)), R(avoid=("21",))))
    assert ps.intersect_terms(t1, t1) == t1


def test_complement_restriction_display_example():
    r = R(avoid=("231", "123"), contain=("4321",))
    parts = set(ps.complement_restriction(r))
    assert parts == {
        R(contain=("123", "231", "4321")),
        R(avoid=("123",), contain=("231", "4321")),
        R(avoid=("231",), contain=("123", "4321")),
        R(avoid=("4321",), contain=("123", "231")),
        R(avoid=("123", "4321"), contain=("231",)),
        R(avoid=("231", "4321"), contain=("123",)),
        R(avoid=("123", "231", "4321")),
    }


def test_complement_restriction_single_constraint():
    assert ps.complement_restriction(R(avoid=("2413",))) == (R(contain=("2413",)),)


def test_complement_of_plus_containing_21_is_one():
    parts = ps.complement_restriction(R("+", (), ("21",)))
    assert parts == (R("+", ("21",)),)
    members = [p for n in range(1, 6) for p in ps.enumerate_class([P("21")], n)]
    hits = [p for p in members if member_of_restriction(p, parts[0], [])]
    assert hits == [P("1")]


def test_complement_term_shape():
    t = RestrictionTerm(ps.MINUS, (R("-", ("12",)), R(avoid=("21",))))
    parts = ps.complement_term(t)
    assert len(parts) == 3
    assert {tuple(str(c) for c in u.children) for u in parts} == {
        ("C-<12>", "C<>(21)"),
        ("C-<>(12)", "C<21>"),
        ("C-<>(12)", "C<>(21)"),
    }


def test_complement_term_of_full_term_is_empty():
    t = RestrictionTerm(ps.PLUS, (R("+"), R()))
    assert ps.complement_term(t) == ()


def test_complement_term_membership_classification():
    t = RestrictionTerm(ps.MINUS, (R("-"), R(avoid=("21",))))
    parts = ps.complement_term(t)
    assert len(parts) == 1
    want = {p for p in ps.closure_members([], 3)[3] if ps.decompose(p)[0] == ps.MINUS}
    got = set()
    for p in want:
        _, kids = ps.decompose(p)
        if all(member_of_restriction(k, c, []) for k, c in zip(kids, parts[0].children)):
            got.add(p)
    assert got == {p for p in want if ps.contains(ps.decompose(p)[1][1], P("21"))}


def test_term_validation():
    with pytest.raises(InvalidInputError):
        RestrictionTerm(ps.PLUS, (R(), R()))
    with pytest.raises(InvalidInputError):
        RestrictionTerm(P("132"), (R(), R(), R()))
    with pytest.raises(InvalidInputError):
        RestrictionTerm(P("3142"), (R(), R()))


def test_term_subset_and_emptiness_helpers():
    t_small = RestrictionTerm(ps.PLUS, (R("+", ("12",)), R(avoid=("12", "21"))))
    t_big = RestrictionTerm(ps.PLUS, (R("+", ("1243",)), R(avoid=("21",))))
    assert term_subset_sufficient(t_small, t_big)
    assert not term_subset_sufficient(t_big, t_small)
    assert provably_empty(R(avoid=("12",), contain=("123",)))


def test_cover_laws_small():
    check_complement_restriction_cover(nmax=5)
    check_complement_term_cover(nmax=5)


def test_denotation_laws_small():
    check_canonical_form_denotation(nmax=5)
    check_intersection_denotation(nmax=5)
    check_subset_sufficient_counts(nmax=6)


def _equal_copies(made):
    """Every copy in `made` equals every other, hashes alike, and finds every
    other as a set member and a dict key."""
    for a in made:
        for b in made:
            assert a == b and hash(a) == hash(b)
            assert b in {a} and {a: 1}[b] == 1


def test_restriction_hash_survives_every_way_of_building_and_copying():
    direct = Restriction("+", (P("132"), P("2341")), (P("21"),))
    canonical = R("+", ("2341", "132", "1432"), ("21", "1"))
    rebuilt = dataclasses.replace(direct, avoid=tuple(list(direct.avoid)))
    made = [direct, canonical, rebuilt, copy.deepcopy(direct), pickle.loads(pickle.dumps(direct))]
    _equal_copies(made)
    assert hash(direct) == hash((direct.delta, direct.avoid, direct.contain))
    assert len({direct, R("+", ("132", "2341"))}) == 2

    first = R(avoid=("132",))
    terms = [RestrictionTerm(ps.PLUS, (r, first)) for r in made]
    terms += [copy.deepcopy(terms[0]), pickle.loads(pickle.dumps(terms[0]))]
    _equal_copies(terms)
    assert len(set(terms) | {RestrictionTerm(ps.PLUS, (direct, R()))}) == 2


def test_mask_decisions_match_pairwise_contains():
    check_masks_against_pairs(rounds=30, seed=24)


def test_restriction_unpickled_in_another_process_rehashes():
    # string hashes differ between processes, so a stored hash must not travel;
    # delta "+" because the empty string hashes to 0 in every process.  The
    # child interns other patterns first, so every pattern has another bit
    # there: masks that travelled would decide wrongly.
    r = R("+", ("132", "2341"), ("21",))
    others = [R("+", ("21",)), R("+", (), ("1432",)), R("+", ("1243",), ("2143",)), R("+")]
    others += [R("+", ("2341",), ("21",)), R("+", ("12",), ("13254",))]
    want = [
        (ps.subset_sufficient(r, o), ps.subset_sufficient(o, r), provably_empty(meet))
        for o in others
        for meet in [ps.intersect_restrictions(r, o)]
    ]
    assert {w for row in want for w in row} == {True, False}
    code = (
        "import pickle, sys\n"
        "from permspec import perm, subset_sufficient\n"
        "from permspec.restrictions import RestrictionTerm, restriction, "
        "terms_meet_provably_empty\n"
        "first = restriction('', [perm('54321'), perm('2413'), perm('21')], [perm('35142')])\n"
        "r, t, others, want = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = restriction('+', [perm('132'), perm('2341')], [perm('21')])\n"
        "assert hash(r) == hash(fresh) and r in {fresh}\n"
        "free = restriction('')\n"
        "assert t in {RestrictionTerm(perm('12'), (fresh, free))}\n"
        "for x in (r, fresh):\n"
        "    got = [(subset_sufficient(x, o), subset_sufficient(o, x),\n"
        "            terms_meet_provably_empty(RestrictionTerm(perm('12'), (x, free)),\n"
        "                                      RestrictionTerm(perm('12'), (o, free))))\n"
        "           for o in others]\n"
        "    assert got == want, (x, got, want)\n"
        "print('ok')\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps((r, RestrictionTerm(ps.PLUS, (r, R())), others, want)),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "ok"


def test_interning_searches_for_no_pattern(monkeypatch):
    # a fresh pattern is interned with every pattern below it, and its mask
    # is folded from its one-point deletions' masks: no occurrence search
    def search(*args, **kwargs):
        raise AssertionError("interning searched for a pattern")

    rng = random.Random(32)
    fresh = []
    while len(fresh) < 40:
        p = random_perm(rng, rng.randint(5, 7))
        if p not in restrictions._ids and p not in fresh:
            fresh.append(p)
    monkeypatch.setattr(perms, "_occurrence_search", search)
    for p, q in zip(fresh[::2], fresh[1::2]):
        restriction(rng.choice(restrictions.DELTAS), [p], [q])
    monkeypatch.undo()
    ids = restrictions._ids
    assert set(fresh) <= ids.keys()
    # the whole table against pairwise contains; a pattern contains no other
    # pattern of its own size or larger
    for p, i in ids.items():
        if len(p) > 1:
            assert set(deletions(p)) <= ids.keys(), p
        want = sum(1 << j for q, j in ids.items() if len(q) < len(p) and ps.contains(p, q))
        assert restrictions._below[i] == want | 1 << i, p


def test_interning_many_patterns_of_one_size_matches_pairwise_contains():
    # most bits of a new pattern's mask are zero when most interned
    # patterns share its size: it must still reach every smaller pattern it
    # contains, and every larger one containing it must reach it
    rng = random.Random(27)
    sevens = [random_perm(rng, 7) for _ in range(300)]
    smaller = [rng.choice(deletions(p)) for p in sevens[:40]]
    larger = [insert_point(rng, p) for p in sevens[40:80]]
    patterns = [random_perm(rng, 5) for _ in range(20)] + sevens + smaller + larger
    for p in patterns:
        restriction("", (), [p])
    check_intern_table(set(patterns))


def test_concurrent_interning_matches_pairwise_contains():
    # four threads intern overlapping sets of mostly new patterns at once:
    # each pattern must be compared with every other exactly, whichever
    # thread interns it, and every decision must equal the referee's
    rng = random.Random(2024)
    bigs = [random_perm(rng, 7) for _ in range(16)]
    smaller = [rng.choice(deletions(p)) for p in bigs]
    shared = bigs + smaller + [rng.choice(deletions(p)) for p in smaller]
    pools = [rng.sample(shared, 24) for _ in range(4)]
    barrier = threading.Barrier(4, timeout=60)
    failures = []

    def work(k):
        try:
            local = random.Random(k)
            order = local.sample(pools[k], len(pools[k]))
            barrier.wait()
            for p in order:
                restriction("", (), [p])
            for _ in range(3):
                check_mask_decisions(random_restrictions(local, pools[k], 6))
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not failures, failures
    check_intern_table(set(p for pool in pools for p in pool) | {ps.ONE})
