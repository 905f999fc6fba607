"""Reference values and checkers that do not rely on the code under test.

Each check returns a list of failure messages; an empty list means the check
passed.  Checks run after the timed region of a call.
"""

from __future__ import annotations

import hashlib

# SHA-256 of dumps_system(specification(...)) at the first benchmarked commit.
# Specification JSON must stay byte-identical across refactors.
SPEC_SHA256 = {
    "Av(2413,3142,21354,12453)": "bb1a888927351af5cadd746f53d33b1a5e31647c4cf9da9ff30cf4f64fb0d81a",
    "Av(2413,3142,21453,12354)": "c99c0455f4a4a5c54e739f9c8750644846ce859b6fb6ca8b87f9965c0f6bc846",
    "Av(2413,3142,21543,12453)": "46df8245a1e90a219fb8707b64f6fbb0fe315e26c774618763ac74a5364c27bb",
    "Av(2413,3142,21354)": "ded6aa0e42a435046532be953ea92236a7e5773d264e459277cd5a01898feb03",
    "Av(132)": "07bd99d96cc2b42d5a29547e1c929e5a791d4fdec549dd9d54b9be8447746a7a",
    "Av(2413,3142,2143)": "4dffa4539fb7092bdc889d1c420efc7a962be80727beff462d531f7255627b15",
    "five-pattern": "e76a877d56b195d7bdb45b2d3d581d028d47ef69d0b39f39d298dcfdc060f79e",
    "five-root": "3a8058d934c41632f2564f0b42e827f95d33632d370cea9ff23cef3357ac17d7",
}

# |Av(basis) ∩ S_n| for n = 1..8, from brute-force class_members at the same
# commit (test_bench.py recomputes them).
BRUTE_COUNTS = {
    "Av(2413,3142,21354,12453)": [1, 2, 6, 22, 88, 363, 1512, 6319],
    "Av(2413,3142,21453,12354)": [1, 2, 6, 22, 88, 360, 1475, 6043],
    "Av(2413,3142,21543,12453)": [1, 2, 6, 22, 88, 362, 1513, 6409],
    "Av(2413,3142,21354)": [1, 2, 6, 22, 89, 378, 1647, 7286],
    "Av(132)": [1, 2, 5, 14, 42, 132, 429, 1430],
    "Av(2413,3142,2143)": [1, 2, 6, 21, 79, 311, 1265, 5275],
    "five-pattern": [1, 2, 6, 21, 73, 245, 798, 2545],
    "five-root": [1, 2, 6, 21, 74, 252, 830, 2668],
}

SEPARABLE_SIZES = [1, 2, 6, 22, 90, 394, 1806, 8558, 41586]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rational_gf_series(order: int) -> list[int]:
    """Taylor coefficients 0..order of the published rational generating
    function of Av(1243, 2341, 2413, 41352, 531642)."""
    num = [0, 1, -7, 20, -28, 20, -7, 1]
    den = [1, -9, 32, -59, 62, -37, 13, -2]
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            acc -= den[j] * out[n - j]
        out[n] = acc
    return out


def separable_counts(order: int) -> list[int]:
    """c_0..c_order of the separable permutations: c_n is the large Schröder
    number S_{n-1}, with (m+1) S_m = 3(2m-1) S_{m-1} - (m-2) S_{m-2}."""
    s = [1, 2]
    for m in range(2, order):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return [0] + s[:order]


def _pattern(values: list[int]) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=values.__getitem__)
    out = [0] * len(values)
    for rank, i in enumerate(order, 1):
        out[i] = rank
    return tuple(out)


def in_substitution_closure(values, simples) -> bool:
    """Whether a permutation of 1..n lies in the substitution closure of the
    given simple permutations, decided without the library's decomposition.

    Scans left to right keeping a stack of value ranges, each an interval of
    the permutation already known to be in the closure.  Whenever the top k
    ranges are adjacent in value and ordered like 12, 21 or a given simple
    permutation of size k, they merge into one range.  Contracting an
    interval that is itself in the closure preserves membership both ways,
    and a group ending at a stack entry is tested when that entry becomes
    the top, so the permutation is a member exactly when one range remains.
    """
    shapes: dict[int, set[tuple[int, ...]]] = {}
    for s in simples:
        shapes.setdefault(len(s), set()).add(tuple(s))
    stack: list[tuple[int, int]] = []
    for v in values:
        stack.append((v, v))
        while len(stack) >= 2:
            (a, b), (c, d) = stack[-2], stack[-1]
            if b + 1 == c or d + 1 == a:
                stack[-2:] = [(min(a, c), max(b, d))]
                continue
            for k, allowed in shapes.items():
                if k > len(stack):
                    continue
                top = stack[-k:]
                lo = min(r[0] for r in top)
                hi = max(r[1] for r in top)
                if hi - lo + 1 == sum(r[1] - r[0] + 1 for r in top) and (
                    _pattern([r[0] for r in top]) in allowed
                ):
                    stack[-k:] = [(lo, hi)]
                    break
            else:
                break
    return len(stack) == 1


def check_draw(values, n: int, simples) -> list[str]:
    if sorted(values) != list(range(1, n + 1)):
        return [f"draw is not a permutation of 1..{n}"]
    if not in_substitution_closure(values, simples):
        return [f"draw of size {n} is outside the substitution closure"]
    return []
