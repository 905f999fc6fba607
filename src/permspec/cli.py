"""Command-line front end.

Subcommands: specify, ambiguous, count, sample, heatmap, and the oracle
group (enumerate, simples, audit).  Exit status 0 on success, 1 on a domain
error (trivial class, malformed specification, impossible sizes, sizes too
large to tabulate, unreadable files), 2 on usage errors; either way the
error is one line on standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import jsonio
from .counting import coefficients
from .disambiguate import ambiguous_system, specification
from .errors import InvalidInputError, PermspecError
from .oracle import _simples_certified, audit_specification, enumerate_class, simples_in_class
from .perms import sort_key
from .sampler import build_tables, heatmap, sample
from .system import basis_of, empty_restrictions, simple_set


def entrypoint() -> None:
    sys.exit(main())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PermspecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line and exit with status 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="permspec",
        description="Specifications, exact counting and uniform sampling "
        "for permutation classes with finitely many simple permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specify", help="compute an unambiguous specification")
    _basis_args(sp)
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.set_defaults(func=_cmd_specify)

    ap = sub.add_parser("ambiguous", help="emit the pre-disambiguation system")
    _basis_args(ap)
    ap.add_argument("--out", required=True)
    ap.set_defaults(func=_cmd_ambiguous)

    cp = sub.add_parser("count", help="counting sequence from a specification")
    cp.add_argument("--spec", required=True)
    cp.add_argument("-N", type=int, required=True, help="largest size to count")
    cp.add_argument("--json", help="also write all per-restriction tables to this path")
    cp.set_defaults(func=_cmd_count)

    smp = sub.add_parser("sample", help="uniform random members of the class")
    smp.add_argument("--spec", required=True)
    smp.add_argument("--size", type=int, required=True)
    smp.add_argument("--count", type=_non_negative, default=1)
    smp.add_argument("--seed", type=int, default=0)
    smp.set_defaults(func=_cmd_sample)

    hm = sub.add_parser("heatmap", help="value-position frequency matrix as CSV")
    hm.add_argument("--spec", required=True)
    hm.add_argument("--size", type=int, required=True)
    hm.add_argument("--samples", type=_non_negative, required=True)
    hm.add_argument("--seed", type=int, default=0)
    hm.add_argument("--out", required=True)
    hm.set_defaults(func=_cmd_heatmap)

    op = sub.add_parser("oracle", help="brute-force checks")
    osub = op.add_subparsers(dest="oracle_command", required=True)

    oe = osub.add_parser("enumerate", help="all class members of one size")
    oe.add_argument("--basis", required=True)
    oe.add_argument("-n", type=int, required=True)
    oe.set_defaults(func=_cmd_oracle_enumerate)

    osimp = osub.add_parser("simples", help="simple permutations of the class up to a bound")
    osimp.add_argument("--basis", required=True)
    osimp.add_argument("--maxlen", type=int, required=True)
    osimp.set_defaults(func=_cmd_oracle_simples)

    oa = osub.add_parser("audit", help="check a system against enumeration")
    oa.add_argument("--spec", required=True)
    oa.add_argument("--basis", required=True)
    oa.add_argument("--nmax", type=int, default=7)
    oa.set_defaults(func=_cmd_oracle_audit)

    return parser


def _basis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--basis", required=True, help="pattern file, one permutation per line")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--simples", help="file with the class's simple permutations")
    g.add_argument(
        "--simples-bound",
        type=int,
        metavar="K",
        help="compute the simple permutations by brute force up to size K",
    )


def _load_inputs(args):
    basis = basis_of(jsonio.read_patterns_file(args.basis))
    if args.simples is not None:
        simples = simple_set(jsonio.read_patterns_file(args.simples))
    else:
        simples = simple_set(_simples_up_to(basis, args.simples_bound))
    return basis, simples


def _simples_up_to(basis, bound: int):
    """The class's simple permutations up to the bound, with a warning when
    they do not certify that no larger one exists."""
    found = simples_in_class(basis.patterns, bound)
    if not _simples_certified(found, bound):
        print(
            f"warning: the simples up to size {bound} do not rule out larger ones; "
            "the bound may be too small to exhaust the class's simples",
            file=sys.stderr,
        )
    return found


def _write_system(args, build):
    """Build the system of the input files, write it to --out and say so."""
    basis, simples = _load_inputs(args)
    system = build(basis, simples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps_system(system))
    print(f"wrote {len(system.equations)} equations to {args.out}")
    return system


def _cmd_specify(args) -> int:
    system = _write_system(args, specification)
    empty = empty_restrictions(system)
    if empty:
        terms = sum(
            any(c in empty for c in t.children)
            for eq in system.equations.values()
            for t in eq.terms
        )
        print(f"empty (no members at any size): {len(empty)} equations, {terms} terms")
    return 0


def _cmd_ambiguous(args) -> int:
    _write_system(args, ambiguous_system)
    return 0


def _read_system(path: str):
    return jsonio.loads_system(jsonio.read_text_file(path))


def _tabulate(build, system, size: int):
    """Tables of the system up to the size; a size whose tables cannot be
    allocated is a domain error ([0] * (size + 1) overflows an index past
    sys.maxsize and fails to allocate below it)."""
    try:
        return build(system, size)
    except (OverflowError, MemoryError):
        raise InvalidInputError(f"size {size} is too large to tabulate") from None


def _cmd_count(args) -> int:
    system = _read_system(args.spec)
    tables = _tabulate(coefficients, system, args.N)
    counts = tables[system.root]
    # counts of any size are exact: lift CPython's int-to-str digit limit
    # (3.10.7 on) while they are written
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for n in range(1, args.N + 1):
            print(f"{n}\t{counts[n]}")
        if args.json:
            obj = {jsonio.restriction_key(r): arr for r, arr in tables.items()}
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2, sort_keys=True)
                fh.write("\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_sample(args) -> int:
    system = _read_system(args.spec)
    tables = _tabulate(build_tables, system, args.size)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        print(sample(tables, args.size, rng))
    return 0


def _cmd_heatmap(args) -> int:
    system = _read_system(args.spec)
    tables = _tabulate(build_tables, system, args.size)
    grid = heatmap(tables, args.size, args.samples, random.Random(args.seed))
    with open(args.out, "w", encoding="utf-8") as fh:
        for row in grid:
            fh.write(",".join(str(v) for v in row) + "\n")
    print(f"wrote {args.size}x{args.size} heatmap to {args.out}")
    return 0


def _cmd_oracle_enumerate(args) -> int:
    basis = basis_of(jsonio.read_patterns_file(args.basis))
    for p in sorted(enumerate_class(basis.patterns, args.n), key=sort_key):
        print(p)
    return 0


def _cmd_oracle_simples(args) -> int:
    basis = basis_of(jsonio.read_patterns_file(args.basis))
    for p in sorted(_simples_up_to(basis, args.maxlen), key=sort_key):
        print(p)
    return 0


def _cmd_oracle_audit(args) -> int:
    system = _read_system(args.spec)
    basis = basis_of(jsonio.read_patterns_file(args.basis))
    report = audit_specification(system, basis.patterns, args.nmax)
    print(report)
    return 0 if report.passed else 1
