import itertools
from pathlib import Path

import pytest

import permspec as ps
from permspec.embeddings import BlockDecomposition
from permspec.errors import InvalidInputError
from permspec.perms import all_intervals
from props import (
    check_embedding_completeness,
    check_embedding_completeness_exhaustive,
    check_embedding_invariants,
)

P = ps.perm

DATA = Path(__file__).parent / "data" / "embeddings_546312_into_3142.txt"


def load_reference_embeddings():
    source, target = P("546312"), P("3142")
    out = []
    for line in DATA.read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        cells = []
        for cell in body.split():
            if cell == "-":
                cells.append(None)
            else:
                lo, hi = cell.split("-")
                cells.append((int(lo), int(hi)))
        out.append(ps.Embedding(source, target, tuple(cells)))
    return out


def test_block_decompositions_simple_source():
    got = ps.block_decompositions(P("3142"))
    parts = {d.parts for d in got}
    assert parts == {((1, 4),), ((1, 1), (2, 2), (3, 3), (4, 4))}


def test_block_decompositions_count_fixture():
    assert len(ps.block_decompositions(P("546312"))) == 12


@pytest.mark.parametrize("n", range(1, 7))
def test_block_decompositions_identity_bound(n):
    ident = ps.Permutation(tuple(range(1, n + 1)))
    assert len(ps.block_decompositions(ident)) == 2 ** (n - 1)


def test_block_decompositions_rejects_empty():
    with pytest.raises(InvalidInputError):
        ps.block_decompositions(ps.EMPTY)


def test_block_decomposition_validation():
    with pytest.raises(InvalidInputError):
        BlockDecomposition(P("3142"), ((1, 2), (3, 4)))
    with pytest.raises(InvalidInputError):
        BlockDecomposition(P("3142"), ((1, 1), (2, 2)))
    with pytest.raises(InvalidInputError, match="not an interval"):
        BlockDecomposition(P("2413"), ((1, 2), (3, 4)))
    # a part running past the end is refused, not truncated to fit
    with pytest.raises(InvalidInputError, match="not an interval"):
        BlockDecomposition(P("2413"), ((1, 5), (6, 4)))


@pytest.mark.parametrize("n", range(1, 6))
def test_block_decomposition_accepts_exactly_interval_parts(n):
    for values in itertools.permutations(range(1, n + 1)):
        p = ps.Permutation(values)
        intervals = all_intervals(p)
        for cuts in range(2 ** (n - 1)):
            ends = [j for j in range(1, n) if cuts >> (j - 1) & 1] + [n]
            parts = tuple(zip([1] + [j + 1 for j in ends[:-1]], ends))
            if all(iv in intervals for iv in parts):
                assert BlockDecomposition(p, parts).parts == parts
            else:
                with pytest.raises(InvalidInputError):
                    BlockDecomposition(p, parts)


def test_embeddings_for_fixtures():
    g = P("546312")
    two_block = BlockDecomposition(g, ((1, 4), (5, 6)))
    assert len(ps.embeddings_for(two_block, P("3142"))) == 3
    three_block = BlockDecomposition(g, ((1, 4), (5, 5), (6, 6)))
    assert len(ps.embeddings_for(three_block, P("3142"))) == 1
    assert ps.embeddings_for(three_block, P("21")) == ()


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
    blocks = {e.blocks() for e in embs}
    assert blocks == {
        (P("3412"), ps.EMPTY),
        (ps.EMPTY, P("3412")),
        (P("12"), P("12")),
    }


def test_embedding_validation_rejects_bad_assignments():
    with pytest.raises(InvalidInputError):
        ps.Embedding(P("21"), P("12"), ((1, 1), (2, 2)))
    with pytest.raises(InvalidInputError):
        ps.Embedding(P("12"), P("12"), ((2, 2), (1, 1)))
    with pytest.raises(InvalidInputError):
        ps.Embedding(P("12"), P("12"), ((1, 1), None))


def test_all_embeddings_deterministic():
    a = ps.all_embeddings(P("546312"), P("3142"))
    b = ps.all_embeddings(P("546312"), P("3142"))
    assert a == b
    assert sorted(a, key=ps.Embedding.sort_token) == list(a)


def test_no_duplicates_across_decompositions():
    # set-size accounting: per-decomposition counts add up to the union size,
    # so distinct decompositions never produce the same assignment
    g, target = P("546312"), P("3142")
    per_decomposition = sum(
        len(ps.embeddings_for(d, target)) for d in ps.block_decompositions(g)
    )
    assert per_decomposition == len(ps.all_embeddings(g, target)) == 12


def test_embedding_invariants_grid():
    check_embedding_invariants(gmax=3, tmax=3)


def test_embedding_completeness_exhaustive_small():
    check_embedding_completeness_exhaustive(gmax=3, rootmax=3, childmax=2)


def test_embedding_completeness_sampled():
    check_embedding_completeness(trials=150)
