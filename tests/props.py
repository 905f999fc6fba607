"""Invariant checks shared by the module tests and the acceptance suite.

Each check raises AssertionError on failure.  Bounds default to the sizes the
checks are specified at; module tests may call them with smaller bounds for
speed, the acceptance suite runs them as-is.
"""

from __future__ import annotations

import itertools
import random

import permspec as ps
from permspec.disambiguate import _disambiguate_group
from permspec.oracle import _Denotations, closure_members
from permspec import restrictions
from permspec.perms import perm, sort_key
from permspec.restrictions import (
    DELTAS,
    Restriction,
    RestrictionTerm,
    restriction,
    term_provably_empty,
    terms_meet_provably_empty,
)


def all_perms(n):
    return [ps.Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def plus_decomposable(p) -> bool:
    """Whether some proper prefix of p holds its lowest values: a prefix
    scan of its own, sharing no code with the decomposition it referees."""
    return any(max(p.values[:j]) == j for j in range(1, len(p)))


def minus_decomposable(p) -> bool:
    """Whether some proper prefix of p holds its highest values."""
    n = len(p)
    return any(min(p.values[:j]) == n - j + 1 for j in range(1, n))


def all_intervals(p):
    """Every interval of p as (start, end), by intervals_from from each
    start (which check_interval_soundness checks against the direct
    definition)."""
    return {iv for i in range(1, len(p) + 1) for iv in ps.intervals_from(p, i)}


def simple_by_intervals(p) -> bool:
    """Size at least 4 and only trivial intervals: the referee for
    `is_simple`, which reads the decomposition's split instead."""
    n = len(p)
    return n >= 4 and all(j - i in (0, n - 1) for i, j in all_intervals(p))


def simple_patterns_by_subsets(p):
    """Every simple pattern of p smaller than p, from the patterns on all
    2^n position subsets: the exponential referee for the one- and
    two-point deletions that `SimpleSet` checks."""
    out = set()
    for k in range(4, len(p)):
        for positions in itertools.combinations(range(len(p)), k):
            q = ps.normalize([p.values[i] for i in positions])
            if ps.is_simple(q):
                out.add(q)
    return out


def parallel_alternations(kmax):
    """2 4 ... k 1 3 ... k-1 for k = 4, 6, ..., kmax: a closed simple set,
    the simple patterns of its largest member together with that member."""
    return [
        ps.Permutation([*range(2, k + 1, 2), *range(1, k, 2)]) for k in range(4, kmax + 1, 2)
    ]


# ---------------------------------------------------------------- perm-core


def check_pattern_order_antisymmetry(nmax=6):
    """Same-size containment is equality; reflexivity holds."""
    for n in range(1, nmax + 1):
        perms = all_perms(n)
        for s in perms:
            assert ps.contains(s, s)
            for p in perms:
                assert ps.contains(s, p) == (s == p)


def check_decomposition_roundtrip(nmax=8):
    """Rebuilding the one-level decomposition gives the permutation back and
    the side conditions of the three shapes hold."""
    for n in range(2, nmax + 1):
        for p in all_perms(n):
            root, children = ps.decompose(p)
            assert ps.substitute(root, children) == p
            if root == ps.PLUS:
                assert not plus_decomposable(children[0])
            elif root == ps.MINUS:
                assert not minus_decomposable(children[0])
            else:
                assert simple_by_intervals(root)
                assert len(children) == len(root)


def check_decomposition_uniqueness(nmax=8):
    """Exactly one of the three decomposition shapes matches, counting every
    candidate writing by exhaustive search."""
    from permspec.perms import pattern_at

    for n in range(2, nmax + 1):
        for p in all_perms(n):
            shapes = 0
            lo = hi = None
            hi = 0
            for j in range(1, n):
                hi = max(hi, p.values[j - 1])
                if hi == j and not plus_decomposable(pattern_at(p, (1, j))):
                    shapes += 1
            lo = n + 1
            for j in range(1, n):
                lo = min(lo, p.values[j - 1])
                if lo == n - j + 1 and not minus_decomposable(pattern_at(p, (1, j))):
                    shapes += 1
            for parts in block_decompositions(p):
                skeleton = ps.normalize([p.values[i - 1] for (i, _) in parts])
                if len(parts) >= 4 and simple_by_intervals(skeleton):
                    shapes += 1
            assert shapes == 1, f"{p} admits {shapes} decomposition shapes"


def block_decompositions(p):
    """Every cut of 1..|p| into consecutive intervals of p, as sorted tuples
    of (start, end) pairs, by a walk over intervals_from (which
    check_interval_soundness checks against the direct definition)."""
    n = len(p)
    done = []
    stack = [(iv,) for iv in ps.intervals_from(p, 1)]
    while stack:
        parts = stack.pop()
        j = parts[-1][1]
        if j == n:
            done.append(parts)
        else:
            stack.extend(parts + (iv,) for iv in ps.intervals_from(p, j + 1))
    return sorted(done)


def check_interval_soundness(nmax=8, sample_at_max=None, seed=0):
    """intervals_from agrees with the direct consecutive-values test."""
    rng = random.Random(seed)
    for n in range(1, nmax + 1):
        perms = all_perms(n)
        if sample_at_max is not None and n == nmax and len(perms) > sample_at_max:
            perms = rng.sample(perms, sample_at_max)
        for p in perms:
            vals = p.values
            for i in range(1, n + 1):
                got = ps.intervals_from(p, i)
                for j in range(i, n + 1):
                    window = sorted(vals[i - 1 : j])
                    direct = window == list(range(window[0], window[0] + j - i + 1))
                    assert ((i, j) in got) == direct, (p, i, j)


def check_closure_downward_closed(nmax=7, simples=("3142",)):
    """Restricting a closure member to an interval keeps it in the closure."""
    ss = [perm(s) for s in simples]
    members = closure_members(ss, nmax)
    for n in range(2, nmax + 1):
        for p in members[n]:
            for (i, j) in all_intervals(p):
                sub = ps.normalize(p.values[i - 1 : j])
                assert ps.in_closure(sub, ss), (p, (i, j))


# --------------------------------------------------------------- embeddings


def check_embedding_invariants(gmax=4, tmax=4):
    """Every produced embedding has one block per target position and
    rebuilds g by generalized substitution, no two are equal, and there are
    at least |target| of them (the whole-block ones)."""
    for gn in range(1, gmax + 1):
        for tn in range(1, tmax + 1):
            for g in all_perms(gn):
                for t in all_perms(tn):
                    embs = ps.all_embeddings(g, t)
                    assert len(embs) >= len(t), (g, t)
                    assert len(set(embs)) == len(embs), (g, t)
                    for emb in embs:
                        assert len(emb) == len(t), (g, t, emb)
                        assert ps.generalized_substitute(t, emb) == g, (g, t, emb)


def check_embeddings_exact(gmax=4, rootmax=4):
    """all_embeddings gives exactly the tuples of consecutive, possibly empty
    pieces of g, one per root position, whose generalized substitution into
    the root rebuilds g, found by brute force over the compositions of |g|
    into len(root) parts."""
    for gn in range(1, gmax + 1):
        for rn in range(1, rootmax + 1):
            compositions = [
                sizes
                for sizes in itertools.product(range(gn + 1), repeat=rn)
                if sum(sizes) == gn
            ]
            for g in all_perms(gn):
                for root in all_perms(rn):
                    want = set()
                    for sizes in compositions:
                        ends = list(itertools.accumulate(sizes))
                        blocks = tuple(
                            ps.normalize(g.values[end - size : end])
                            for size, end in zip(sizes, ends)
                        )
                        if ps.generalized_substitute(root, blocks) == g:
                            want.add(blocks)
                    assert set(ps.all_embeddings(g, root)) == want, (g, root)


def check_embedding_completeness(gmax=4, rootmax=4, childmax=3, trials=400, seed=1):
    """An inflation contains g iff some embedding has all its blocks
    contained in the corresponding children (seeded random inflations)."""
    rng = random.Random(seed)
    roots = [p for n in range(2, rootmax + 1) for p in all_perms(n)]
    children_pool = [p for n in range(1, childmax + 1) for p in all_perms(n)]
    gammas = [p for n in range(1, gmax + 1) for p in all_perms(n)]
    for _ in range(trials):
        root = rng.choice(roots)
        kids = [rng.choice(children_pool) for _ in range(len(root))]
        sigma = ps.substitute(root, kids)
        g = rng.choice(gammas)
        direct = ps.contains(sigma, g)
        via_embeddings = any(
            all(
                len(block) == 0 or ps.contains(kid, block)
                for kid, block in zip(kids, emb)
            )
            for emb in ps.all_embeddings(g, root)
        )
        assert direct == via_embeddings, (root, kids, g)


def check_embedding_completeness_exhaustive(gmax=3, rootmax=3, childmax=2):
    roots = [p for n in range(2, rootmax + 1) for p in all_perms(n)]
    children_pool = [p for n in range(1, childmax + 1) for p in all_perms(n)]
    gammas = [p for n in range(1, gmax + 1) for p in all_perms(n)]
    for root in roots:
        for kids in itertools.product(children_pool, repeat=len(root)):
            sigma = ps.substitute(root, list(kids))
            for g in gammas:
                direct = ps.contains(sigma, g)
                via = any(
                    all(
                        len(block) == 0 or ps.contains(kid, block)
                        for kid, block in zip(kids, emb)
                    )
                    for emb in ps.all_embeddings(g, root)
                )
                assert direct == via, (root, kids, g)


# ------------------------------------------------------- restriction algebra


def sample_restrictions():
    """Representative restrictions with up to three constraints."""
    pool = [perm(s) for s in ("12", "21", "132", "231", "123", "2341", "1243")]
    out = []
    for delta in ("", "+", "-"):
        out.append(restriction(delta, [pool[0]], []))
        out.append(restriction(delta, [pool[2]], [pool[1]]))
        out.append(restriction(delta, [pool[2], pool[5]], [pool[1]]))
        out.append(restriction(delta, [pool[4]], [pool[3], pool[6]]))
        out.append(restriction(delta, [], [pool[0], pool[1]]))
    return out


def members_by_contains(den, r, n):
    """The referee for `_Denotations.members`: the size-n closure members
    outside the root r's delta bars, each tested against every pattern of r
    by a `contains` search, as the audit filtered them before the avoiders
    of each pattern were grown."""
    return frozenset(
        p
        for root, bucket in den.table[n].items()
        if not restrictions._delta_bars(r.delta, root)
        for p, _, _ in bucket
        if not any(ps.contains(p, e) for e in r.avoid) and all(ps.contains(p, a) for a in r.contain)
    )


def in_term(den, t, root, kids):
    """Whether the closure member with this root and these children lies in
    the inflation that the term t denotes over `_Denotations` den."""
    return root == t.root and all(
        kid in den.members(child, len(kid)) for kid, child in zip(kids, t.children)
    )


def check_complement_restriction_cover(nmax=7, simples=("3142",)):
    """Every closure member of the right kind lies in exactly one of a
    restriction and its complement parts."""
    ss = [perm(s) for s in simples]
    den = _Denotations(tuple(ss), nmax)
    for r in sample_restrictions():
        parts = (r,) + ps.complement_restriction(r)
        for n in range(1, nmax + 1):
            for p, _, _ in (m for bucket in den.table[n].values() for m in bucket):
                if r.delta == "+" and plus_decomposable(p):
                    continue
                if r.delta == "-" and minus_decomposable(p):
                    continue
                hits = sum(p in den.members(part, n) for part in parts)
                assert hits == 1, (r, p, hits)


def check_complement_term_cover(nmax=7, simples=()):
    """Same-root inflations split exactly one way across a term and its
    complement parts."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    terms = [
        RestrictionTerm(ps.MINUS, (restriction("-"), restriction("", [perm("21")]))),
        RestrictionTerm(
            ps.PLUS,
            (restriction("+", [perm("12")]), restriction("", [perm("132")], [perm("21")])),
        ),
        # flipping both of the first child's patterns gives C+<12>(123), empty
        RestrictionTerm(ps.PLUS, (restriction("+", [perm("123")], [perm("12")]), restriction(""))),
    ]
    for t in terms:
        parts = (t,) + ps.complement_term(t)
        assert not any(map(term_provably_empty, parts[1:])), (t, parts)
        for n in range(2, nmax + 1):
            for p, _, kids in den.table[n].get(t.root, ()):
                hits = sum(in_term(den, part, t.root, kids) for part in parts)
                assert hits == 1, (t, p, hits)


def check_canonical_form_denotation(nmax=7, simples=("3142",)):
    """restriction() reduces redundant constraint lists without changing the
    denoted set: a raw Restriction over the same lists has the same members."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    lists = [
        (("12", "1243"), ("1", "12", "21")),
        (("132", "1243", "2341"), ("1", "21")),
        (("123", "1234", "2341"), ("12", "21", "231")),
        (("2341",), ("1", "12", "132", "21")),
        ((), ("1", "21", "231", "1243")),
    ]
    for delta in ("", "+", "-"):
        for avoid, contain in lists:
            raw = Restriction(delta, tuple(map(perm, avoid)), tuple(map(perm, contain)))
            canon = restriction(delta, raw.avoid, raw.contain)
            assert canon != raw
            assert restriction(delta, canon.avoid, canon.contain) == canon
            for n in range(1, nmax + 1):
                assert den.members(raw, n) == den.members(canon, n), (raw, n)


def check_intersection_denotation(nmax=7, simples=("3142",)):
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    rs = sample_restrictions()
    for r1 in rs:
        for r2 in rs:
            if r1.delta != r2.delta:
                continue
            meet = ps.intersect_restrictions(r1, r2)
            for n in range(1, nmax + 1):
                want = den.members(r1, n) & den.members(r2, n)
                assert den.members(meet, n) == want, (r1, r2, n)


def check_subset_sufficient_counts(nmax=8, simples=("3142",)):
    """Whenever the inclusion test fires, member counts are ordered."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    rs = sample_restrictions()
    for r1 in rs:
        for r2 in rs:
            if r1.delta != r2.delta or not ps.subset_sufficient(r1, r2):
                continue
            for n in range(1, nmax + 1):
                assert den.members(r1, n) <= den.members(r2, n), (r1, r2, n)


def random_perm(rng, n):
    return ps.Permutation(tuple(rng.sample(range(1, n + 1), n)))


def deletions(p):
    """The distinct patterns of p with one entry deleted."""
    cut = (p.values[:k] + p.values[k + 1 :] for k in range(len(p)))
    return list(dict.fromkeys(map(ps.normalize, cut)))


def insert_point(rng, p):
    """p with one random entry inserted: a pattern containing p."""
    n = len(p)
    v, k = rng.randint(1, n + 1), rng.randint(0, n)
    lifted = [x + (x >= v) for x in p.values]
    return ps.Permutation(lifted[:k] + [v] + lifted[k:])


# The referee for the restriction algebra's bit masks: every decision as
# one `contains` lookup per pair of patterns, as it was made before the
# patterns were interned.


def minima_by_pairs(patterns):
    return tuple(p for p in patterns if not any(q != p and ps.contains(p, q) for q in patterns))


def maxima_by_pairs(patterns):
    return tuple(p for p in patterns if not any(q != p and ps.contains(q, p) for q in patterns))


def canonical_by_pairs(avoid, contain):
    """The avoid and contain sides `restriction` should keep."""
    def ordered(patterns):
        return tuple(sorted(set(patterns), key=sort_key))

    return (
        minima_by_pairs(ordered(avoid)),
        maxima_by_pairs(tuple(p for p in ordered(contain) if p != ps.ONE)),
    )


def empty_by_pairs(r) -> bool:
    return any(ps.contains(a, e) for e in r.avoid for a in r.contain)


def provably_empty_by_pairs(r) -> bool:
    return ps.ONE in r.avoid or empty_by_pairs(r)


def subset_by_pairs(r1, r2) -> bool:
    return all(any(ps.contains(p, t) for t in r1.avoid) for p in r2.avoid) and all(
        any(ps.contains(t, p) for t in r1.contain) for p in r2.contain
    )


def meet_empty_by_pairs(r1, r2) -> bool:
    """Whether the canonical meet of r1 and r2 is provably empty."""
    avoid, contain = canonical_by_pairs(r1.avoid + r2.avoid, r1.contain + r2.contain)
    return provably_empty_by_pairs(Restriction(r1.delta, avoid, contain))


def _term_of(r):
    """A two-child term with r as one child and a free other child, so a
    meet of two such terms is empty exactly when the meet of the rs is."""
    if r.delta == "+":
        return RestrictionTerm(ps.PLUS, (r, restriction("")))
    if r.delta == "-":
        return RestrictionTerm(ps.MINUS, (r, restriction("")))
    return RestrictionTerm(ps.PLUS, (restriction("+"), r))


def check_mask_decisions(rs):
    """Emptiness, inclusion and meets of the given restrictions, decided on
    bit masks, equal the pairwise referee on every restriction and pair."""
    for r in rs:
        assert ps.is_empty_sufficient(r) == empty_by_pairs(r), r
        assert restrictions.provably_empty(r) == provably_empty_by_pairs(r), r
    for r1 in rs:
        for r2 in rs:
            if r1.delta != r2.delta:
                continue
            assert ps.subset_sufficient(r1, r2) == subset_by_pairs(r1, r2), (r1, r2)
            got = terms_meet_provably_empty(_term_of(r1), _term_of(r2))
            assert got == meet_empty_by_pairs(r1, r2), (r1, r2)


def check_intern_table(patterns):
    """The table's masks record exactly the containments among `patterns`."""
    ids = {p: restrictions._ids[p] for p in patterns}
    for p, i in ids.items():
        for q, j in ids.items():
            assert bool(restrictions._below[i] >> j & 1) == ps.contains(p, q), (p, q)


def random_restrictions(rng, pool, count):
    """Canonical restrictions over up to three avoided and three mandatory
    patterns of the pool, each with a raw twin over the same patterns."""
    out = []
    for _ in range(count):
        delta = rng.choice(DELTAS)
        avoid = rng.sample(pool, rng.randint(0, 3))
        contain = rng.sample(pool, rng.randint(0, 3))
        canon = restriction(delta, avoid, contain)
        assert (canon.avoid, canon.contain) == canonical_by_pairs(avoid, contain), canon
        out += [canon, Restriction(delta, tuple(avoid), tuple(contain))]
    return out


def unseen_first(candidates):
    """A candidate the intern table has not seen yet, if there is one."""
    return min(candidates, key=lambda p: p in restrictions._ids)


def check_masks_against_pairs(rounds=30, seed=0):
    """Seeded random restrictions over patterns of sizes 1-6, all three
    deltas: canonical forms and every mask decision equal the referee, also
    for restrictions over a mandatory pattern's deletion and an avoided
    pattern's extension.  The deletion was interned with the mandatory
    pattern, so only the extension can be new to the table, and it sits
    above a pattern some earlier restriction avoids."""
    rng = random.Random(seed)
    late = 0
    for _ in range(rounds):
        pool = [random_perm(rng, rng.randint(1, 6)) for _ in range(12)]
        rs = random_restrictions(rng, pool, 4)
        delta = rng.choice(DELTAS)
        big, small = random_perm(rng, 6), random_perm(rng, 5)
        rs += [restriction(delta, (), [big]), restriction(delta, [small])]
        check_mask_decisions(rs)
        below = unseen_first(deletions(big))
        above = unseen_first([insert_point(rng, small) for _ in range(6)])
        late += (below not in restrictions._ids) + (above not in restrictions._ids)
        rs += [restriction(delta, [below]), restriction(delta, (), [below])]
        rs += [restriction(delta, [above]), restriction(delta, (), [above])]
        check_mask_decisions(rs)
    # most of these patterns are new to the table when they arrive
    assert late >= rounds, late


# ------------------------------------------------------------ system builder


def check_add_constraints_semantics(nmax=8, gmax=4, simples=("3142",)):
    """Pushing one avoidance constraint into a term preserves its members."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    base_terms = [
        RestrictionTerm(ps.PLUS, (restriction("+"), restriction(""))),
        RestrictionTerm(ps.MINUS, (restriction("-"), restriction(""))),
    ] + [
        RestrictionTerm(perm(s), (restriction(""),) * 4)
        for s in simples
        if len(perm(s)) == 4
    ]
    gammas = [p for n in range(2, gmax + 1) for p in all_perms(n)]
    for t in base_terms:
        for g in gammas:
            rewritten = ps.add_constraints(t, g)
            for n in range(2, nmax + 1):
                for p, _, kids in den.table[n].get(t.root, ()):
                    in_lhs = in_term(den, t, t.root, kids) and not ps.contains(p, g)
                    in_union = any(in_term(den, u, t.root, kids) for u in rewritten)
                    assert in_lhs == in_union, (t, g, p)


def check_add_mandatory_semantics(nmax=7, gmax=4, simples=("3142",)):
    """Pushing one containment constraint into a term preserves its members."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    base_terms = [
        RestrictionTerm(ps.PLUS, (restriction("+", [perm("132")]), restriction(""))),
        RestrictionTerm(ps.MINUS, (restriction("-"), restriction("", [perm("21")]))),
    ] + [
        RestrictionTerm(perm(s), (restriction(""),) * 4)
        for s in simples
        if len(perm(s)) == 4
    ]
    gammas = [p for n in range(2, gmax + 1) for p in all_perms(n)]
    for t in base_terms:
        for g in gammas:
            rewritten = ps.add_mandatory(t, g)
            for n in range(2, nmax + 1):
                for p, _, kids in den.table[n].get(t.root, ()):
                    in_lhs = in_term(den, t, t.root, kids) and ps.contains(p, g)
                    in_union = any(in_term(den, u, t.root, kids) for u in rewritten)
                    assert in_lhs == in_union, (t, g, p)


def check_system_structure(system, basis):
    """Completeness and the blocks-only constraint universe."""
    from permspec.system import propagated_blocks

    blocks = propagated_blocks(basis)
    for lhs, eq in system.equations.items():
        assert eq.lhs == lhs
        for r in eq.rhs_restrictions():
            assert r in system.equations, f"{r} has no equation"
            for p in r.avoid + r.contain:
                assert p in blocks
        assert eq.has_one == (not lhs.contain)


def check_group_expansion_cover(nmax=7, simples=()):
    """The per-root disjoint expansion covers exactly the original union."""
    den = _Denotations(tuple(perm(s) for s in simples), nmax)
    t1 = RestrictionTerm(
        ps.PLUS, (restriction("+", [perm("2143")]), restriction("", [perm("21")]))
    )
    t2 = RestrictionTerm(
        ps.PLUS, (restriction("+", [perm("21")]), restriction("", [perm("2143")]))
    )
    # a one-term group is its own disjoint union
    assert _disambiguate_group((t1,)) == (t1,)
    assert _disambiguate_group((t2,)) == (t2,)
    expanded = _disambiguate_group((t1, t2))
    for n in range(2, nmax + 1):
        for root, bucket in den.table[n].items():
            for p, _, kids in bucket:
                before = in_term(den, t1, root, kids) or in_term(den, t2, root, kids)
                hits = sum(in_term(den, u, root, kids) for u in expanded)
                assert hits == (1 if before else 0), (p, hits)
