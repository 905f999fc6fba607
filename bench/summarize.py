"""Summarize saved outputs of run.py into one trajectory point.

    for seed in 1 2 3; do
        python3 bench/run.py --workload specify --seed $seed --seconds 20 > out/specify_$seed.txt
    done
    python3 bench/run.py --workload specify --seed 1 --seconds 20 --trace 1 > out/specify_trace.txt
    python3 bench/summarize.py bench/results/<name>.json out/*.txt

Untraced runs give, per workload, the median and quartiles of every
end-to-end metric and per-operation figure, and the spread of every call's
time across all repetitions; a traced run gives the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import sys


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "n": len(values)}


def parse(path: str) -> tuple[dict, dict, dict[str, list]]:
    """(run header, result, '#'-lines by tag) of one saved run."""
    info: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    for line in lines[:-1]:
        tag, _, body = line[2:].partition(" ")
        if tag in ("run", "figures", "calls"):
            info.setdefault(tag, []).append(json.loads(body))
    return info["run"][0], json.loads(lines[-1]), info


def main(out_path: str, paths: list[str]) -> None:
    workloads: dict[str, dict] = {}
    machine: dict = {}
    for path in paths:
        run, result, info = parse(path)
        if not result["correct"]:
            raise SystemExit(f"{path}: run reported failures")
        w = workloads.setdefault(
            run["workload"],
            {"seeds": [], "seconds": run["seconds"], "end_to_end": {}, "figures": {}, "calls_s": {}},
        )
        machine = {k: run[k] for k in ("nproc", "python", "implementation", "l2_bytes",
                                       "l3_bytes", "git_revision")}
        if run["trace"]:
            w["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            continue
        w["seeds"].append(run["seed"])
        for name, metric in result["metrics"].items():
            w["end_to_end"].setdefault(name, []).append(metric["value"])
        for name, value in info["figures"][0].items():
            w["figures"].setdefault(name, []).append(value)
        for rep in info["calls"][0]:
            for name, wall in rep.items():
                w["calls_s"].setdefault(name, []).append(wall)
    for w in workloads.values():
        for key in ("end_to_end", "figures"):
            w[key] = {name: quartiles(v) for name, v in w[key].items()}
        w["calls_s"] = {
            name: {"min": min(v), "median": statistics.median(v), "max": max(v), "n": len(v)}
            for name, v in w["calls_s"].items()
        }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "workloads": workloads}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
