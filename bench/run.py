"""permspec benchmark.

    python3 bench/run.py --workload specify --seed 1 --seconds 16 --trace 0

Runs the workload's calls, each in a fresh interpreter as one `permspec`
command would (so every lru_cache starts cold), repeats them until the given
seconds have passed, checks every output, and prints as its last line a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are end-to-end medians over the repetitions; with --trace 1 one
untraced and one traced repetition give the per-layer metrics and the
tracing overhead.  Lines before the last one carry the machine details and
per-call figures.  Workloads, metrics and the layer map: bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CALL_TIMEOUT_S = 150
MIN_SETUPS = 5

SPECIFY_CLASSES = (
    "Av(2413,3142,21354,12453)",
    "Av(2413,3142,21453,12354)",
    "Av(2413,3142,21543,12453)",
    "Av(2413,3142,21354)",
    "Av(132)",
    "Av(2413,3142,2143)",
    "five-pattern",
    "five-root",
)


def workload_calls(name: str, seed: int) -> list[dict]:
    """The calls of one repetition.  Calls are independent processes, so the
    seed only fixes their order and the samplers' random streams."""
    if name == "specify":
        calls = [{"op": "specify", "cls": c} for c in SPECIFY_CLASSES]
    elif name == "count-sample":
        calls = [
            {"op": "count", "cls": "five-pattern", "N": 1000},
            {"op": "sample", "cls": "five-pattern", "size": 1000, "count": 3, "seed": seed},
            {"op": "count", "cls": "separable", "N": 1000},
        ]
    elif name == "draw-many":
        calls = [{"op": "draws", "cls": "five-root", "size": 200, "count": 2000, "seed": seed}]
    elif name == "oracle":
        calls = [
            {"op": "enumerate", "cls": "separable", "nmax": 9},
            {"op": "audit", "cls": "five-pattern", "nmax": 7},
        ]
    else:
        raise ValueError(name)
    random.Random(seed).shuffle(calls)
    return calls


WORKLOADS = ("specify", "count-sample", "draw-many", "oracle")


def call_worker(desc: dict) -> dict:
    """Run one call in a fresh interpreter; a crash or a timeout comes back
    as a failed call."""
    try:
        proc = subprocess.run(
            [sys.executable, WORKER],
            input=json.dumps(desc),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return _crashed(desc, f"timed out after {CALL_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return _crashed(desc, f"exit {proc.returncode}: {last}")
    return json.loads(lines[-1])


def _crashed(desc: dict, why: str) -> dict:
    attempted = desc.get("count", 1)
    return {"attempted": attempted, "failed": attempted, "failures": [why], "crashed": True}


def label(desc: dict) -> str:
    return f"{desc['op']}:{desc['cls']}"


def run_repetition(calls: list[dict], trace: bool = False) -> list[dict]:
    """One result per call, each carrying its call description as "desc"."""
    return [dict(call_worker(dict(c, trace=trace)), desc=c) for c in calls]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


FIGURE_OF_OP = {
    "specify": "specify_s",
    "count": "count_s",
    "sample": "sample_cli_s",
    "enumerate": "enumerate_s",
    "audit": "audit_s",
}


def workload_figures(reps: list[list[dict]]) -> dict[str, float]:
    """Per-operation figures (README, "Figures per operation"): medians over
    repetitions of the time of each kind of call, and draw latencies."""
    per_rep: list[dict[str, float]] = []
    for results in reps:
        fig: dict[str, float] = {}
        for r in results:
            op = r["desc"]["op"]
            if op == "draws":
                lat = r["latencies_s"]
                fig["draw_p50_ms"] = quantile(lat, 50) * 1e3
                fig["draw_p99_ms"] = quantile(lat, 99) * 1e3
                fig["draws_per_s"] = len(lat) / sum(lat)
            else:
                key = FIGURE_OF_OP[op]
                fig[key] = fig.get(key, 0.0) + r["work_s"]
        per_rep.append(fig)
    return {k: statistics.median(f[k] for f in per_rep) for k in per_rep[0]}


def measure(calls: list[dict], seconds: float) -> tuple[dict, list]:
    """Repeat the calls until the seconds have passed; end-to-end medians."""
    reps: list[list[dict]] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(run_repetition(calls))
    setups = [sum(r["setup_s"] for r in rep) for rep in reps if _ok(rep)]
    setup_reps = 0
    while len(setups) + setup_reps < MIN_SETUPS:
        rep = run_repetition([dict(c, setup_only=True) for c in calls])
        setup_reps += 1
        if _ok(rep):
            setups.append(sum(r["setup_s"] for r in rep))
    good = [rep for rep in reps if _ok(rep)]
    metrics = {}
    if good and setups:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "work_s": {
                "value": statistics.median(sum(r["work_s"] for r in rep) for rep in good),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": statistics.median(max(r["rss_kb"] for r in rep) / 1024 for rep in good),
                "unit": "MB",
            },
        }
    return metrics, reps


def _ok(rep: list[dict]) -> bool:
    return not any(r.get("crashed") for r in rep)


PER_FUNCTION = {
    "perms.contains": ("calls", "self_s"),
    "perms.substitute": ("calls", "self_s"),
    "perms.generalized_substitute": ("self_s",),
    "perms.decompose": ("calls", "self_s"),
    "embeddings.all_embeddings": ("calls", "self_s"),
    "restrictions.restriction": ("calls",),
    "restrictions.canonicalize": ("self_s",),
    "restrictions.subset_sufficient": ("calls", "self_s"),
    "restrictions.complement_restriction": ("calls",),
    "system.prune_terms": ("self_s",),
    "system.add_constraints": ("self_s",),
    "disambiguate.eqn_for_restriction": ("self_s",),
    "disambiguate.disambiguate": ("self_s",),
    "counting.coefficients": ("self_s",),
    "counting.convolve": ("calls", "self_s"),
    "sampler.build_tables": ("self_s",),
    "sampler.sample": ("self_s",),
    "oracle.class_members": ("self_s",),
    "oracle.audit_specification": ("self_s",),
    "jsonio.dumps_system": ("self_s",),
    "jsonio.loads_system": ("self_s",),
}
COUNTS = (
    "system.prune_terms.terms_in",
    "system.prune_terms.terms_out",
    "disambiguate.terms_in",
    "disambiguate.terms_out",
    "disambiguate.equations",
    "disambiguate.terms",
    "counting.coefficients.mults",
    "counting.cN_bits",
    "sampler.sample.randrange_calls",
)
HIT_RATIOS = ("embeddings.all_embeddings", "perms.cached_contains")


def trace_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition, summed over its calls."""
    stats: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    cache: dict[str, list[int]] = {}
    for r in traced:
        t = r["trace"]
        for name, (calls, total, self_s) in t["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, (hits, misses) in t["cache"].items():
            c = cache.setdefault(name, [0, 0])
            c[0] += hits
            c[1] += misses
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for fn, kinds in PER_FUNCTION.items():
        calls, _, self_s = stats.get(fn, (0, 0.0, 0.0))
        for kind in kinds:
            if kind == "calls":
                put(f"{fn}.calls", calls, "count")
            else:
                put(f"{fn}.self_s", self_s, "s")
    for name in COUNTS:
        put(name, counts.get(name, 0), "count")
    for fn in HIT_RATIOS:
        hits, misses = cache.get(fn, (0, 0))
        put(f"{fn}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for layer in LAYERS:
        put(
            f"{layer}.self_s",
            sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer),
            "s",
        )
    traced_s = sum(r["prep_s"] + r["work_s"] for r in traced)
    untraced_s = sum(r["prep_s"] + r["work_s"] for r in untraced)
    put("trace.traced_s", traced_s, "s")
    put("trace.untraced_s", untraced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.self_sum_s", sum(v[2] for v in stats.values()), "s")
    put("trace.glue_s", sum(v[2] for k, v in stats.items() if k.startswith("bench.")), "s")
    return out


def git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def getconf(name: str) -> str:
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_header(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "git_revision": git_revision(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "permspec", "__init__.py")):
        print(f"error: no permspec sources under {ROOT}/src", file=sys.stderr)
        return 2

    print("# run " + json.dumps(run_header(args)))
    calls = workload_calls(args.workload, args.seed)
    if args.trace:
        untraced = run_repetition(calls)
        traced = run_repetition(calls, trace=True)
        reps, timed = [untraced, traced], [untraced]
        metrics = trace_metrics(untraced, traced) if _ok(untraced) and _ok(traced) else {}
    else:
        metrics, reps = measure(calls, args.seconds)
        timed = reps

    attempted = failed = 0
    for r in (r for rep in reps for r in rep):
        attempted += r["attempted"]
        failed += r["failed"]
        for f in r["failures"]:
            print(f"# FAIL {label(r['desc'])}: {f}")
    if all(_ok(rep) for rep in timed):
        print("# figures " + json.dumps(workload_figures(timed)))
        print("# calls " + json.dumps(
            [{label(r["desc"]): r["work_s"] for r in rep} for rep in timed]
        ))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
