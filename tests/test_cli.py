import json
import os
import subprocess
import sys

import pytest

import permspec as ps
from permspec import jsonio
from permspec.cli import main
from props import parallel_alternations

P = ps.perm

BIG_BASIS = "1243\n2341\n2413\n41352\n531642\n"


@pytest.fixture()
def big_files(tmp_path):
    basis = tmp_path / "basis.txt"
    basis.write_text("# five forbidden patterns\n" + BIG_BASIS)
    simples = tmp_path / "simples.txt"
    simples.write_text("3142\n")
    return basis, simples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_specify_and_count_roundtrip(tmp_path, big_files, capsys):
    from reference_systems import BIG_EXPECTED, system_as_dict

    basis, simples = big_files
    spec_path = tmp_path / "spec.json"
    code, out, _ = run(
        capsys, "specify", "--basis", str(basis), "--simples", str(simples),
        "--out", str(spec_path),
    )
    assert code == 0 and out.splitlines() == [f"wrote 16 equations to {spec_path}"]

    # byte-stable round trip, and the file holds the expected system
    text = spec_path.read_text()
    assert jsonio.dumps_system(jsonio.loads_system(text)) == text
    assert system_as_dict(jsonio.loads_system(text)) == BIG_EXPECTED

    code, out, _ = run(capsys, "count", "--spec", str(spec_path), "-N", "8")
    assert code == 0
    lines = [l.split("\t") for l in out.strip().splitlines()]
    assert [int(a) for a, _ in lines] == list(range(1, 9))
    assert [int(b) for _, b in lines] == [1, 2, 6, 21, 73, 245, 798, 2545]


def test_count_json_tables(tmp_path, big_files, capsys):
    basis, simples = big_files
    spec_path = tmp_path / "spec.json"
    tables_path = tmp_path / "tables.json"
    run(capsys, "specify", "--basis", str(basis), "--simples", str(simples),
        "--out", str(spec_path))
    code, _, _ = run(
        capsys, "count", "--spec", str(spec_path), "-N", "6", "--json", str(tables_path)
    )
    assert code == 0
    tables = json.loads(tables_path.read_text())
    assert tables["C<avoid:1243,2341><contain:>"] == [0, 1, 2, 6, 21, 73, 245]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no int-to-str digit limit before CPython 3.10.7",
)
def test_count_prints_counts_beyond_the_int_string_limit(tmp_path, capsys):
    from reference_systems import separable_counts

    # c_900 of the separable closure has 690 digits, past a limit of 640
    system = ps.substitution_closed_spec(ps.simple_set([]))
    spec_path = tmp_path / "separable.json"
    spec_path.write_text(jsonio.dumps_system(system))
    tables_path = tmp_path / "tables.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = run(
            capsys, "count", "--spec", str(spec_path), "-N", "900", "--json", str(tables_path)
        )
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    want = separable_counts(900)
    assert out.splitlines()[-1] == f"900\t{want[900]}"
    tables = json.loads(tables_path.read_text())
    assert tables[jsonio.restriction_key(system.root)] == want


def test_sample_output(tmp_path, big_files, capsys):
    basis, simples = big_files
    spec_path = tmp_path / "spec.json"
    run(capsys, "specify", "--basis", str(basis), "--simples", str(simples),
        "--out", str(spec_path))
    code, out, _ = run(
        capsys, "sample", "--spec", str(spec_path), "--size", "30", "--count", "3",
        "--seed", "7",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 3
    basis_perms = [P(x) for x in BIG_BASIS.split()]
    for row in rows:
        p = jsonio.parse_perm_text(row)
        assert len(p) == 30
        assert all(ps.avoids(p, beta) for beta in basis_perms)
    code2, out2, _ = run(
        capsys, "sample", "--spec", str(spec_path), "--size", "30", "--count", "3",
        "--seed", "7",
    )
    assert out2 == out


def test_ambiguous_emission_and_count_refusal(tmp_path, big_files, capsys):
    basis, simples = big_files
    amb_path = tmp_path / "amb.json"
    code, out, _ = run(
        capsys, "ambiguous", "--basis", str(basis), "--simples", str(simples),
        "--out", str(amb_path),
    )
    assert code == 0 and "12 equations" in out
    assert json.loads(amb_path.read_text())["disjoint"] is False
    code, _, err = run(capsys, "count", "--spec", str(amb_path), "-N", "5")
    assert code == 1 and "ambiguous" in err


def test_heatmap_rows_and_columns(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("132\n")
    spec_path = tmp_path / "spec.json"
    run(capsys, "specify", "--basis", str(basis), "--simples-bound", "4",
        "--out", str(spec_path))
    csv_path = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "heatmap", "--spec", str(spec_path), "--size", "6", "--samples", "50",
        "--seed", "1", "--out", str(csv_path),
    )
    assert code == 0
    grid = [[int(v) for v in row.split(",")] for row in csv_path.read_text().splitlines()]
    assert len(grid) == 6
    assert all(sum(row) == 50 for row in grid)
    assert all(sum(col) == 50 for col in zip(*grid))


def test_heatmap_unique_member_is_diagonal(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("21\n")
    spec_path = tmp_path / "spec.json"
    run(capsys, "specify", "--basis", str(basis), "--simples-bound", "4",
        "--out", str(spec_path))
    csv_path = tmp_path / "grid.csv"
    run(capsys, "heatmap", "--spec", str(spec_path), "--size", "5", "--samples", "9",
        "--seed", "0", "--out", str(csv_path))
    grid = [[int(v) for v in row.split(",")] for row in csv_path.read_text().splitlines()]
    assert all(grid[i][j] == (9 if i == j else 0) for i in range(5) for j in range(5))


def test_oracle_subcommands(tmp_path, big_files, capsys):
    basis, simples = big_files
    code, out, _ = run(capsys, "oracle", "enumerate", "--basis", str(basis), "-n", "4")
    assert code == 0 and len(out.strip().splitlines()) == 21

    code, out, _ = run(capsys, "oracle", "simples", "--basis", str(basis), "--maxlen", "6")
    assert code == 0 and out.strip() == "3 1 4 2"

    spec_path = tmp_path / "spec.json"
    run(capsys, "specify", "--basis", str(basis), "--simples", str(simples),
        "--out", str(spec_path))
    code, out, _ = run(
        capsys, "oracle", "audit", "--spec", str(spec_path), "--basis", str(basis),
        "--nmax", "5",
    )
    assert code == 0 and "no violations" in out


def test_specify_reports_empty_parts(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("2413\n3142\n21543\n12453\n")
    spec_path = tmp_path / "spec.json"
    code, out, err = run(
        capsys, "specify", "--basis", str(basis), "--simples-bound", "4",
        "--out", str(spec_path),
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        f"wrote 35 equations to {spec_path}",
        "empty (no members at any size): 2 equations, 14 terms",
    ]


def test_simples_bound_warning(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("1243\n2341\n2413\n41352\n531642\n")
    spec_path = tmp_path / "spec.json"
    code, _, err = run(
        capsys, "specify", "--basis", str(basis), "--simples-bound", "4",
        "--out", str(spec_path),
    )
    assert code == 0
    assert "may be too small" in err
    # the oracle's search warns in the same words
    code, out, oracle_err = run(capsys, "oracle", "simples", "--basis", str(basis),
                                "--maxlen", "4")
    assert code == 0 and out.strip() == "3 1 4 2" and oracle_err == err


@pytest.mark.parametrize(
    "basis_text, bound, warns",
    [
        # simples at sizes 4, 6, 8 and 10 only: a bound between two of them
        # misses the next without any simple of the bound's own size
        ("321\n24153\n31524\n", 7, True),
        ("321\n24153\n31524\n", 9, True),
        (BIG_BASIS, 8, False),
        ("2413\n3142\n21543\n12453\n", 4, False),
    ],
)
def test_simples_bound_warns_unless_certified(tmp_path, capsys, basis_text, bound, warns):
    basis = tmp_path / "basis.txt"
    basis.write_text(basis_text)
    code, _, err = run(
        capsys, "specify", "--basis", str(basis), "--simples-bound", str(bound),
        "--out", str(tmp_path / "spec.json"),
    )
    assert code == 0
    assert ("may be too small" in err) == warns, err


def test_domain_error_exit_code(tmp_path, capsys):
    basis = tmp_path / "basis.txt"
    basis.write_text("1\n")
    code, _, err = run(
        capsys, "specify", "--basis", str(basis), "--simples-bound", "4",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 1 and "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


def test_pattern_file_parsing(tmp_path):
    path = tmp_path / "pats.txt"
    path.write_text("# comment\n3142\n\n3 1 4 2  # inline comment\n")
    pats = jsonio.read_patterns_file(str(path))
    assert pats == [P("3142"), P("3142")]


def one_line(err):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "error:" in lines[0] and "Traceback" not in err
    return lines[0]


@pytest.fixture()
def av21_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec = ps.specification(ps.basis_of([P("21")]), ps.simple_set([]))
    spec_path.write_text(jsonio.dumps_system(spec))
    return spec_path


def test_negative_sample_count_is_usage_error(av21_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--spec", str(av21_spec), "--size", "5", "--count", "-1"])
    assert exc.value.code == 2
    assert "--count" in one_line(capsys.readouterr().err)


def test_negative_heatmap_samples_is_usage_error(tmp_path, av21_spec, capsys):
    csv_path = tmp_path / "grid.csv"
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--spec", str(av21_spec), "--size", "5", "--samples", "-3",
              "--out", str(csv_path)])
    assert exc.value.code == 2
    assert "--samples" in one_line(capsys.readouterr().err)
    assert not csv_path.exists()


@pytest.mark.parametrize("missing", ["--spec", "--basis", "--simples"])
def test_missing_input_file_is_domain_error(tmp_path, big_files, capsys, missing):
    basis, simples = big_files
    absent, out = str(tmp_path / "absent.txt"), str(tmp_path / "spec.json")
    argv = {
        "--spec": ["count", "--spec", absent, "-N", "5"],
        "--basis": ["specify", "--basis", absent, "--simples", str(simples), "--out", out],
        "--simples": ["specify", "--basis", str(basis), "--simples", absent, "--out", out],
    }[missing]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "absent.txt" in one_line(err)


@pytest.mark.parametrize("bad", ["--spec", "--basis", "--simples"])
def test_non_utf8_input_file_is_domain_error(tmp_path, big_files, capsys, bad):
    basis, simples = big_files
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"3142\n\xff\n")
    out = str(tmp_path / "spec.json")
    argv = {
        "--spec": ["count", "--spec", str(binary), "-N", "5"],
        "--basis": ["specify", "--basis", str(binary), "--simples", str(simples), "--out", out],
        "--simples": ["specify", "--basis", str(basis), "--simples", str(binary), "--out", out],
    }[bad]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "binary.txt is not UTF-8" in one_line(err)


@pytest.mark.parametrize("command", ["specify", "ambiguous"])
def test_simple_containing_a_basis_pattern_is_domain_error(tmp_path, capsys, command):
    basis = tmp_path / "basis.txt"
    basis.write_text("2413\n3142\n21354\n")
    simples = tmp_path / "simples.txt"
    simples.write_text("2413\n")
    out = tmp_path / "spec.json"
    code, _, err = run(
        capsys, command, "--basis", str(basis), "--simples", str(simples), "--out", str(out)
    )
    assert code == 1
    assert "2413 contains the basis pattern 2413" in one_line(err)
    assert not out.exists()


@pytest.mark.parametrize(
    "text,field",
    [
        ("{}", "closure_simples"),
        ("not json at all\n", "not JSON"),
        pytest.param("[" * 100_000, "not JSON", id="deeply-nested"),
        ('{"closure_simples": [], "equations": "C<>"}', "equations"),
        (
            '{"closure_simples": [], "equations": [{"lhs": {"delta": "", "avoid": [[2, 1]], '
            '"contain": []}, "has_one": "yes", "disjoint": true, "terms": []}]}',
            "has_one",
        ),
        pytest.param('{"closure_simples": [], "equations": []}', "no equations", id="no-equations"),
        pytest.param(
            '{"closure_simples": [], "equations": [{"lhs": {"delta": "", "avoid": [[2, 1]], '
            '"contain": []}, "has_one": true, "disjoint": true, "terms": [{"root": "plus", '
            '"children": ["C<avoid:12><contain:>", "C<avoid:><contain:>"]}]}]}',
            "system JSON: child 'C<avoid:12><contain:>' is not defined",
            id="undefined-child",
        ),
        pytest.param(
            '{"closure_simples": [[2, 4, 1, "3"]], "equations": []}',
            "not a list of integers",
            id="string-entry",
        ),
        pytest.param(
            '{"closure_simples": [], "equations": [{"lhs": {"delta": "x", "avoid": [], '
            '"contain": []}, "has_one": true, "disjoint": true, "terms": []}]}',
            "delta",
            id="bad-delta",
        ),
    ],
)
def test_malformed_spec_is_domain_error(tmp_path, capsys, text, field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    code, _, err = run(capsys, "count", "--spec", str(spec_path), "-N", "5")
    assert code == 1
    assert field in one_line(err)


@pytest.mark.parametrize(
    "lhs,reason",
    [
        ({"delta": "x", "avoid": [], "contain": []}, "bad delta 'x'"),
        (
            {"delta": "", "avoid": [[]], "contain": []},
            "the empty permutation may not constrain a restriction",
        ),
    ],
    ids=["bad-delta", "empty-avoided"],
)
def test_refused_lhs_names_the_file_and_field(tmp_path, capsys, lhs, reason):
    # both used to print the bare reason, naming neither the file nor the field
    first = {"delta": "", "avoid": [[2, 1]], "contain": []}
    eobjs = [{"lhs": r, "has_one": True, "disjoint": True, "terms": []} for r in (first, lhs)]
    obj = {"closure_simples": [], "equations": eobjs}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "count", "--spec", str(spec_path), "-N", "5")
    assert code == 1 and out == ""
    assert one_line(err) == f"error: system JSON: equations[1].lhs: {reason}"


def test_duplicate_equation_is_domain_error(tmp_path, sep_subclass_spec, capsys):
    # a second equation for the class itself used to replace the first
    obj = jsonio.system_to_obj(sep_subclass_spec)
    obj["equations"].append(dict(obj["equations"][0], terms=[]))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "count", "--spec", str(spec_path), "-N", "5")
    assert code == 1 and out == ""
    assert "two equations" in one_line(err)


def test_root_outside_the_closure_is_domain_error(tmp_path, capsys):
    # a 2413 root in the separable closure used to count 1, 2, 6, 23, 100, ...
    obj = jsonio.system_to_obj(ps.substitution_closed_spec(ps.simple_set([])))
    first = obj["equations"][0]
    key = jsonio.restriction_key(ps.restriction(""))
    first["terms"].append({"root": [2, 4, 1, 3], "children": [key] * 4})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "count", "--spec", str(spec_path), "-N", "5")
    assert code == 1 and out == ""
    assert "closure_simples" in one_line(err)


@pytest.mark.parametrize(
    "simples,reason",
    [
        ([[1, 2, 3]], "is not a simple permutation"),
        # simple, but its simple patterns 2413 and 3142 are missing: the
        # audit of the separable spec with this set reports violations
        ([[2, 5, 3, 1, 4]], "is missing from the set"),
        # the parallel alternations of sizes 6-20 lack 2413, which only a
        # two-point deletion of 246135 reaches
        ([list(p.values) for p in parallel_alternations(20)[1:]], "is missing from the set"),
    ],
)
def test_closure_simples_no_class_has_is_domain_error(tmp_path, capsys, simples, reason):
    obj = jsonio.system_to_obj(ps.substitution_closed_spec(ps.simple_set([])))
    obj["closure_simples"] = simples
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "count", "--spec", str(spec_path), "-N", "5")
    assert code == 1 and out == ""
    line = one_line(err)
    assert "system JSON: closure_simples:" in line and reason in line


def test_uncertified_disjoint_flag_is_domain_error(tmp_path, capsys):
    # the ambiguous system of Av(2413,3142,2143) with every equation marked
    # disjoint would count 1, 3, 10, 38, ... instead of 1, 2, 6, 21, ...
    amb = ps.ambiguous_system(ps.basis_of([P("2413"), P("3142"), P("2143")]), ps.simple_set([]))
    obj = jsonio.system_to_obj(amb)
    for eobj in obj["equations"]:
        eobj["disjoint"] = True
    spec_path = tmp_path / "forged.json"
    spec_path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "count", "--spec", str(spec_path), "-N", "8")
    assert code == 1 and out == ""
    assert "marked disjoint" in one_line(err)


@pytest.mark.parametrize(
    "lhs,forged",
    [
        # marked with the atom, this equation, which must contain 21, made
        # the class count 1, 3, 8, 26, 87, ... instead of 1, 2, 6, 21, 73, ...
        ("C<132,2341>(21)", True),
        # the class itself without the atom counted 0, 1, 4, 16, 60, ...
        ("C<1243,2341>", False),
    ],
    ids=["true-without-atom", "false-with-atom"],
)
def test_forged_has_one_is_domain_error(tmp_path, big_spec, capsys, lhs, forged):
    obj = jsonio.system_to_obj(big_spec)
    (eobj,) = [e for r, e in zip(big_spec.equations, obj["equations"]) if str(r) == lhs]
    assert eobj["has_one"] is not forged
    eobj["has_one"] = forged
    spec_path = tmp_path / "forged.json"
    spec_path.write_text(json.dumps(obj))
    basis = tmp_path / "basis.txt"
    basis.write_text(BIG_BASIS)
    spec = ["--spec", str(spec_path)]
    for argv in (
        ["count", *spec, "-N", "5"],
        ["sample", *spec, "--size", "5"],
        ["heatmap", *spec, "--size", "5", "--samples", "1", "--out", str(tmp_path / "h.csv")],
        ["oracle", "audit", *spec, "--basis", str(basis), "--nmax", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert f"[{lhs}]" in one_line(err) and "has_one" in err, argv


@pytest.mark.parametrize(
    "lhs,root",
    [
        # a plus term in C+<> made the separable class count 1, 2, 7, 31,
        # 154, ... instead of 1, 2, 6, 22, 90, ...
        ("C+<>", "plus"),
        ("C-<>", "minus"),
    ],
)
def test_root_barred_by_the_part_is_domain_error(tmp_path, capsys, lhs, root):
    sep = ps.substitution_closed_spec(ps.simple_set([]))
    obj = jsonio.system_to_obj(sep)
    (eobj,) = [e for r, e in zip(sep.equations, obj["equations"]) if str(r) == lhs]
    (tobj,) = [t for t in obj["equations"][0]["terms"] if t["root"] == root]
    eobj["terms"].append(tobj)
    spec_path = tmp_path / "forged.json"
    spec_path.write_text(json.dumps(obj))
    basis = tmp_path / "basis.txt"
    basis.write_text("2413\n3142\n")
    spec = ["--spec", str(spec_path)]
    for argv in (
        ["count", *spec, "-N", "5"],
        ["sample", *spec, "--size", "5"],
        ["heatmap", *spec, "--size", "5", "--samples", "1", "--out", str(tmp_path / "h.csv")],
        ["oracle", "audit", *spec, "--basis", str(basis), "--nmax", "3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert f"[{lhs}]" in one_line(err) and "root" in err, argv


@pytest.mark.parametrize(
    "argv", [("enumerate", "-n", "-1"), ("simples", "--maxlen", "-1")], ids=lambda a: a[0]
)
def test_negative_oracle_size_is_domain_error(big_files, capsys, argv):
    basis, _ = big_files
    code, out, err = run(capsys, "oracle", argv[0], "--basis", str(basis), *argv[1:])
    assert code == 1 and out == ""
    assert "-1" in one_line(err)


@pytest.mark.parametrize("nmax", ["-3", "0"])
def test_vacuous_audit_is_domain_error(tmp_path, av21_spec, capsys, nmax):
    basis = tmp_path / "basis.txt"
    basis.write_text("21\n")
    code, out, err = run(
        capsys, "oracle", "audit", "--spec", str(av21_spec), "--basis", str(basis),
        "--nmax", nmax,
    )
    assert code == 1 and "no violations" not in out
    assert "nmax" in one_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "-N", str(10**20)),
        ("sample", "--size", str(10**20)),
        ("heatmap", "--size", str(10**20), "--samples", "1", "--out", "grid.csv"),
    ],
    ids=lambda a: a[0],
)
def test_huge_size_is_domain_error(tmp_path, av21_spec, capsys, argv):
    argv = [a if a != "grid.csv" else str(tmp_path / a) for a in argv]
    code, out, err = run(capsys, argv[0], "--spec", str(av21_spec), *argv[1:])
    assert code == 1 and out == ""
    assert "too large" in one_line(err)
    assert not (tmp_path / "grid.csv").exists()


def test_module_entry_point(av21_spec):
    # python -m permspec runs the CLI from a source tree, without installing
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ps.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "permspec", "count", "--spec", str(av21_spec), "-N", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\t1\n2\t1\n3\t1\n", "")
