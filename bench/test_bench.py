"""Self-checks of the benchmark: its independent references, its span
accounting, and the counts a later change may rest a claim on.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import permspec as ps  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from spans import _coefficients_hook  # noqa: E402
from worker import CLASSES  # noqa: E402

SMALL_CALLS = [
    {"op": "specify", "cls": "Av(2413,3142,21354)"},
    {"op": "count", "cls": "five-pattern", "N": 200},
    {"op": "count", "cls": "separable", "N": 200},
    {"op": "sample", "cls": "five-pattern", "size": 100, "count": 3, "seed": 7},
    {"op": "draws", "cls": "five-root", "size": 60, "count": 50, "seed": 7},
    {"op": "enumerate", "cls": "separable", "nmax": 6},
    {"op": "audit", "cls": "five-pattern", "nmax": 5},
]

# Counts that must read the same on every run of the same code.
REPEATABLE = (
    "disambiguate.equations",
    "disambiguate.terms",
    "system.prune_terms.terms_in",
    "system.prune_terms.terms_out",
    "perms.contains.calls",
    "sampler.sample.randrange_calls",
    "counting.coefficients.mults",
    "counting.cN_bits",
)


@pytest.fixture(scope="module")
def repetitions():
    untraced = run.run_repetition(SMALL_CALLS)
    traced = [run.run_repetition(SMALL_CALLS, trace=True) for _ in range(2)]
    return untraced, traced


def test_closure_checker_matches_library():
    for simples in ([], ["3142"], ["3142", "41352"], ["2413", "3142", "24153"]):
        allowed = [ps.perm(s) for s in simples]
        raw = [tuple(p.values) for p in allowed]
        for n in range(1, 8):
            for values in itertools.permutations(range(1, n + 1)):
                assert checks.in_substitution_closure(values, raw) == ps.in_closure(
                    ps.Permutation(values), allowed
                ), (simples, values)


def test_brute_counts_match_oracle():
    for name, want in checks.BRUTE_COUNTS.items():
        patterns = [ps.perm(x) for x in CLASSES[name][0]]
        members = ps.class_members(patterns, 8)
        assert [len(members[n]) for n in range(1, 9)] == want, name


def test_reference_series():
    assert checks.separable_counts(9)[1:] == checks.SEPARABLE_SIZES
    assert checks.rational_gf_series(7) == [0, 1, 2, 6, 21, 73, 245, 798]


def test_every_check_passes(repetitions):
    untraced, traced = repetitions
    for rep in [untraced] + traced:
        for r in rep:
            assert not r.get("crashed") and r["failed"] == 0, r["failures"]


def test_counts_repeat_exactly(repetitions):
    untraced, traced = repetitions
    first, second = (run.trace_metrics(untraced, t) for t in traced)
    for name in REPEATABLE:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name


def test_self_times_add_up(repetitions):
    untraced, traced = repetitions
    m = run.trace_metrics(untraced, traced[0])
    total = m["trace.traced_s"]["value"]
    assert m["trace.self_sum_s"]["value"] == pytest.approx(total, rel=1e-9)
    layers = sum(m[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    assert layers + m["trace.glue_s"]["value"] == pytest.approx(total, rel=1e-9)
    assert m["trace.overhead_s"]["value"] == pytest.approx(
        total - m["trace.untraced_s"]["value"]
    )


def test_mults_match_the_convolution_loop():
    spec = ps.substitution_closed_spec(ps.simple_set([ps.perm("3142")]))
    order = 12
    loop = 0
    for n in range(1, order + 1):
        for eq in spec.equations.values():
            for t in eq.terms:
                loop += (len(t.children) - 1) * len(range(1, n))
    counts = Counter()
    _coefficients_hook(counts, (spec, order), ps.coefficients(spec, order))
    assert counts["counting.coefficients.mults"] == loop


def test_metric_names_match_benchmark_json(repetitions):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    untraced, traced = repetitions
    per_layer = run.trace_metrics(untraced, traced[0])
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]]["unit"] for m in spec["per_layer"])
    end_to_end, _ = run.measure(SMALL_CALLS[:1], 0)
    assert {m["name"] for m in spec["end_to_end"]} == set(end_to_end)
    assert all(m["unit"] == end_to_end[m["name"]]["unit"] for m in spec["end_to_end"])
    assert all(v["value"] > 0 for v in end_to_end.values())


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "specify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
