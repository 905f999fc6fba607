"""One benchmark call in a fresh interpreter, as one `permspec` command would run.

Reads a JSON call description on standard input and prints one JSON line:
the set-up time (import plus input preparation), the time of the call's work,
the process's peak resident set, the failures of the call's checks and, when
the call asks for it, the trace.  Checks run after the timed work.  With
"setup_only" the call stops after its set-up.

    echo '{"op": "specify", "cls": "Av(132)"}' | python3 bench/worker.py
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# name -> (basis, simple permutations of the class)
CLASSES = {
    "Av(2413,3142,21354,12453)": (("2413", "3142", "21354", "12453"), ()),
    "Av(2413,3142,21453,12354)": (("2413", "3142", "21453", "12354"), ()),
    "Av(2413,3142,21543,12453)": (("2413", "3142", "21543", "12453"), ()),
    "Av(2413,3142,21354)": (("2413", "3142", "21354"), ()),
    "Av(132)": (("132",), ()),
    "Av(2413,3142,2143)": (("2413", "3142", "2143"), ()),
    "five-pattern": (("1243", "2341", "2413", "41352", "531642"), ("3142",)),
    "five-root": (("1243", "2341", "2413", "531642"), ("3142", "41352")),
    "separable": (("2413", "3142"), ()),
}


class CountingSource:
    """random.Random's stream, counting randrange calls."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.calls = 0

    def randrange(self, bound: int) -> int:
        self.calls += 1
        return self._rng.randrange(bound)


class Call:
    """Library access plus the inputs of one call."""

    def __init__(self, desc: dict):
        import permspec
        from permspec import jsonio

        if os.path.dirname(os.path.abspath(permspec.__file__)) != os.path.join(SRC, "permspec"):
            raise SystemExit(f"permspec imported from {permspec.__file__}, not {SRC}")
        self.ps = permspec
        self.jsonio = jsonio
        self.desc = desc
        self.sources: list[CountingSource] = []

    def basis(self, name: str):
        return self.ps.basis_of([self.ps.perm(x) for x in CLASSES[name][0]])

    def simples(self, name: str):
        return self.ps.simple_set([self.ps.perm(x) for x in CLASSES[name][1]])

    def spec_text(self, name: str) -> str:
        """The JSON a user would pass as --spec, built with the library."""
        if name == "separable":
            spec = self.ps.substitution_closed_spec(self.simples(name))
        else:
            spec = self.ps.specification(self.basis(name), self.simples(name))
        return self.jsonio.dumps_system(spec)

    def rng(self, seed: int):
        if not self.desc.get("trace"):
            return random.Random(seed)
        source = CountingSource(seed)
        self.sources.append(source)
        return source

    def check_draws(self, draws, n: int, name: str) -> list[str]:
        simples = [tuple(int(c) for c in s) for s in CLASSES[name][1]]
        return [f for p in draws for f in checks.check_draw(p.values, n, simples)]


# Each op prepares its inputs (set-up) and returns (work, check): work() is
# the timed part, check(result) returns failure messages.


def op_specify(c: Call):
    name = c.desc["cls"]
    basis, simples = c.basis(name), c.simples(name)

    def work():
        spec = c.ps.specification(basis, simples)
        return spec, c.jsonio.dumps_system(spec)

    def check(out):
        spec, text = out
        failures = []
        if checks.sha256(text) != checks.SPEC_SHA256[name]:
            failures.append(f"{name}: specification JSON differs from the reference")
        if c.ps.class_counts(spec, 8)[1:] != checks.BRUTE_COUNTS[name]:
            failures.append(f"{name}: counts to 8 differ from brute force")
        return failures

    return work, check


def op_count(c: Call):
    name, order = c.desc["cls"], c.desc["N"]
    text = c.spec_text(name)

    def work():
        return c.ps.class_counts(c.jsonio.loads_system(text), order)

    def check(counts):
        if name == "separable":
            ok = counts == checks.separable_counts(order)
        else:
            ok = counts[:21] == checks.rational_gf_series(20)
        return [] if ok else [f"{name}: counts differ from the reference series"]

    return work, check


def op_sample(c: Call):
    name, size, count = c.desc["cls"], c.desc["size"], c.desc["count"]
    text = c.spec_text(name)
    rng = c.rng(c.desc["seed"])

    def work():
        tables = c.ps.build_tables(c.jsonio.loads_system(text), size)
        return [c.ps.sample(tables, size, rng) for _ in range(count)]

    return work, lambda draws: c.check_draws(draws, size, name)


def op_draws(c: Call):
    name, size, count = c.desc["cls"], c.desc["size"], c.desc["count"]
    tables = c.ps.build_tables(c.jsonio.loads_system(c.spec_text(name)), size)
    rng = c.rng(c.desc["seed"])

    def work():
        clock, sample = time.perf_counter, c.ps.sample
        draws, latencies = [], []
        for _ in range(count):
            start = clock()
            draws.append(sample(tables, size, rng))
            latencies.append(clock() - start)
        return draws, latencies

    return work, lambda out: c.check_draws(out[0], size, name)


def op_enumerate(c: Call):
    name, nmax = c.desc["cls"], c.desc["nmax"]
    patterns = c.basis(name).patterns

    def work():
        return c.ps.class_members(patterns, nmax)

    def check(members):
        sizes = [len(members[n]) for n in range(1, nmax + 1)]
        if name != "separable" or sizes != checks.SEPARABLE_SIZES[:nmax]:
            return [f"{name}: class sizes {sizes} differ from the reference"]
        return []

    return work, check


def op_audit(c: Call):
    name, nmax = c.desc["cls"], c.desc["nmax"]
    text = c.spec_text(name)
    patterns = c.basis(name).patterns

    def work():
        return c.ps.audit_specification(c.jsonio.loads_system(text), patterns, nmax)

    return work, lambda report: [] if report.passed else [f"{name}: {report}"]


OPS = {
    "specify": op_specify,
    "count": op_count,
    "sample": op_sample,
    "draws": op_draws,
    "enumerate": op_enumerate,
    "audit": op_audit,
}


def run(desc: dict) -> dict:
    """Set-up (import and input preparation), timed work and checks of one
    call.  Traced, the tracer's spans time the preparation and the work."""
    op = OPS[desc["op"]]
    if not desc.get("trace"):
        start = time.perf_counter()
        c = Call(desc)
        imported = time.perf_counter()
        work, check = op(c)
        prepared = time.perf_counter()
        result = {"setup_s": prepared - start, "prep_s": prepared - imported}
        if desc.get("setup_only"):
            return result
        out = work()
        result["work_s"] = time.perf_counter() - prepared
    else:
        from spans import Tracer

        c = Call(desc)
        tracer = Tracer()
        with tracer.installed():
            with tracer.span("bench.prep"):
                work, check = op(c)
            with tracer.span("bench.work"):
                out = work()
        tracer.counts["sampler.sample.randrange_calls"] += sum(s.calls for s in c.sources)
        result = {
            "prep_s": tracer.stats["bench.prep"][1],
            "work_s": tracer.stats["bench.work"][1],
            "trace": {
                "stats": tracer.stats,
                "counts": dict(tracer.counts),
                "cache": tracer.cache_counts(),
            },
        }
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures = check(out)
    attempted = desc.get("count", 1)
    result.update(attempted=attempted, failed=min(len(failures), attempted), failures=failures[:5])
    if desc["op"] == "draws":
        result["latencies_s"] = out[1]
    return result


def main() -> None:
    desc = json.loads(sys.stdin.read())
    sys.path.insert(0, SRC)
    print(json.dumps(run(desc)))


if __name__ == "__main__":
    main()
