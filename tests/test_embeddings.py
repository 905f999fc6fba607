import itertools
from pathlib import Path

import pytest

import permspec as ps
from permspec.errors import InvalidInputError
from permspec.perms import pattern_at
from props import (
    all_intervals,
    block_decompositions,
    check_embedding_completeness,
    check_embedding_completeness_exhaustive,
    check_embedding_invariants,
    check_embeddings_exact,
)

P = ps.perm

DATA = Path(__file__).parent / "data" / "embeddings_546312_into_3142.txt"


def load_reference_embeddings():
    """The data file's embeddings as block tuples.  Its intervals must tile
    1..6 from left to right, so the block sizes determine them."""
    source = P("546312")
    out = []
    for line in DATA.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        blocks, pos = [], 1
        for cell in body.split():
            if cell == "-":
                blocks.append(ps.EMPTY)
            else:
                lo, hi = (int(x) for x in cell.split("-"))
                assert lo == pos and hi >= lo, line
                blocks.append(pattern_at(source, (lo, hi)))
                pos = hi + 1
        assert pos == len(source) + 1, line
        out.append(tuple(blocks))
    return out


def sort_token(emb):
    """The intervals an embedding assigns to the root positions, (0, 0) for
    none: all_embeddings' canonical order."""
    token, pos = [], 1
    for block in emb:
        if len(block) == 0:
            token.append((0, 0))
        else:
            token.append((pos, pos + len(block) - 1))
            pos += len(block)
    return tuple(token)


def test_block_decompositions_simple_source():
    parts = set(block_decompositions(P("3142")))
    assert parts == {((1, 4),), ((1, 1), (2, 2), (3, 3), (4, 4))}


def test_block_decompositions_count_fixture():
    assert len(block_decompositions(P("546312"))) == 12


@pytest.mark.parametrize("n", range(1, 7))
def test_block_decompositions_identity_bound(n):
    ident = ps.Permutation(tuple(range(1, n + 1)))
    assert len(block_decompositions(ident)) == 2 ** (n - 1)


def test_all_embeddings_rejects_empty():
    with pytest.raises(InvalidInputError):
        ps.all_embeddings(ps.EMPTY, P("12"))
    with pytest.raises(InvalidInputError):
        ps.all_embeddings(P("1"), ps.EMPTY)


@pytest.mark.parametrize("n", range(1, 6))
def test_block_decomposition_accepts_exactly_interval_parts(n):
    # the cut walk yields exactly the cuts of 1..n whose parts are intervals
    for values in itertools.permutations(range(1, n + 1)):
        p = ps.Permutation(values)
        intervals = all_intervals(p)
        want = []
        for cuts in range(2 ** (n - 1)):
            ends = [j for j in range(1, n) if cuts >> (j - 1) & 1] + [n]
            parts = tuple(zip([1] + [j + 1 for j in ends[:-1]], ends))
            if all(iv in intervals for iv in parts):
                want.append(parts)
        assert block_decompositions(p) == sorted(want)


def test_embeddings_for_fixtures():
    # one embedding per occurrence of a cut's skeleton; the sizes of the
    # non-empty blocks, in order, name the cut of 546312
    def realizing(target, sizes):
        embs = ps.all_embeddings(P("546312"), target)
        return [e for e in embs if [len(b) for b in e if len(b)] == sizes]

    assert len(realizing(P("3142"), [4, 2])) == 3
    assert len(realizing(P("3142"), [4, 1, 1])) == 1
    assert realizing(P("21"), [4, 1, 1]) == []


def test_all_embeddings_table_fixture():
    got = set(ps.all_embeddings(P("546312"), P("3142")))
    want = set(load_reference_embeddings())
    assert got == want
    assert len(got) == 12


def test_all_embeddings_single_point_source():
    for target in (P("1"), P("3142"), P("546312")):
        embs = ps.all_embeddings(P("1"), target)
        assert len(embs) == len(target)


def test_all_embeddings_into_decreasing_pair():
    embs = ps.all_embeddings(P("3412"), P("21"))
    assert set(embs) == {
        (P("3412"), ps.EMPTY),
        (ps.EMPTY, P("3412")),
        (P("12"), P("12")),
    }


def test_all_embeddings_deterministic():
    a = ps.all_embeddings(P("546312"), P("3142"))
    b = ps.all_embeddings(P("546312"), P("3142"))
    assert a == b
    assert sorted(a, key=sort_token) == list(a)


def test_no_duplicates_across_decompositions():
    # set-size accounting: per-cut skeleton occurrences add up to the number
    # of embeddings, so distinct cuts never produce the same block tuple
    g, target = P("546312"), P("3142")
    per_decomposition = sum(
        len(ps.occurrences(target, ps.normalize([g.values[i - 1] for (i, _) in parts])))
        for parts in block_decompositions(g)
    )
    assert per_decomposition == len(ps.all_embeddings(g, target)) == 12


def test_all_embeddings_exact_small():
    check_embeddings_exact(gmax=4, rootmax=4)


def test_embedding_invariants_grid():
    check_embedding_invariants(gmax=3, tmax=3)


def test_embedding_completeness_exhaustive_small():
    check_embedding_completeness_exhaustive(gmax=3, rootmax=3, childmax=2)


def test_embedding_completeness_sampled():
    check_embedding_completeness(trials=150)
