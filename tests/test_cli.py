"""CLI contract: subcommands, exit codes, determinism, output schemas."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from solgrow.catalog import catalog
from solgrow.cli import _plain_args, build_parser, main
from solgrow.elements import GenSet, MatFp, Perm
from solgrow.specio import dump_genset


def _schema(name: str) -> dict:
    ref = resources.files("solgrow") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture()
def spec_dir(tmp_path: Path) -> Path:
    for name, fname in [
        ("s4", "s4.json"),
        ("q8", "q8.json"),
        ("z2", "z2.json"),
        ("f2^3:c7", "f8c7.json"),
        ("sanov", "sanov.json"),
    ]:
        dump_genset(catalog(name), str(tmp_path / fname))
    return tmp_path


def _run(args: list[str]) -> int:
    return main(args)


def test_analyze_s4(spec_dir, capsys):
    rc = _run(["analyze", str(spec_dir / "s4.json")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("analyze"))
    assert rec["order"] == 24
    assert rec["derived_length"] == 3
    assert rec["mu"] == {"a": 3, "b": 0, "value": 3.0}
    assert rec["sc_chief_rank"] == 2
    assert rec["supersoluble"] is False


def test_mu_subcommand(spec_dir, capsys):
    rc = _run(["mu", str(spec_dir / "q8.json"), "--method", "bruteforce"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("mu"))
    assert (rec["a"], rec["b"]) == (0, 1)
    assert rec["series"][0] == {"order": 8, "kind": "class2"}


def test_bounds_subcommand(capsys):
    rc = _run(["bounds", "--n", "2"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("bounds"))
    assert rec["sigma"] == 4
    assert rec["rho"] == pytest.approx(7.577324, abs=1e-5)
    assert rec["mu_irreducible"] == pytest.approx(1.5 + 2.482892142, abs=1e-6)


def test_growth_radius_zero(spec_dir, capsys):
    rc = _run(["growth", str(spec_dir / "z2.json"), "--radius", "0"])
    assert rc == 0
    assert capsys.readouterr().out == "radius,gamma\n0,1\n"


def test_growth_with_fit(spec_dir, tmp_path, capsys):
    csv_path = tmp_path / "z2.csv"
    out_path = tmp_path / "z2.fit.json"
    rc = _run(
        [
            "growth",
            str(spec_dir / "z2.json"),
            "--radius",
            "12",
            "--csv",
            str(csv_path),
            "--fit",
            "-o",
            str(out_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "radius,gamma"
    assert lines[1] == "0,1" and lines[5] == "4,41"
    rec = json.loads(out_path.read_text())
    jsonschema.validate(rec, _schema("growth"))
    assert rec["fit"]["kind"] == "polynomial"


def test_growth_cap_exit_code(spec_dir, tmp_path):
    rc = _run(
        [
            "growth",
            str(spec_dir / "sanov.json"),
            "--radius",
            "12",
            "--max-elements",
            "100",
            "--csv",
            str(tmp_path / "partial.csv"),
            "-o",
            str(tmp_path / "partial.json"),
        ]
    )
    assert rc == 2
    rec = json.loads((tmp_path / "partial.json").read_text())
    assert rec["truncated"] is True


def test_truncated_table_with_no_fit_window_is_still_written(spec_dir, tmp_path, capsys):
    # the cap leaves radii 0 and 1, too few to fit: the partial table is
    # written without a fit, flagged truncated, and the exit is the cap's
    out = tmp_path / "out.json"
    args = ["growth", str(spec_dir / "sanov.json"), "--radius", "12", "--fit"]
    rc = _run([*args, "--max-elements", "10", "-o", str(out)])
    assert rc == 2
    rec = json.loads(out.read_text())
    jsonschema.validate(rec, _schema("growth"))
    assert rec["counts"] == [1, 5] and rec["truncated"] is True and "fit" not in rec
    assert capsys.readouterr().err == "no fit: too few usable points in fit window\n"


def test_untruncated_table_with_no_fit_window_is_an_input_error(spec_dir, tmp_path, capsys):
    out = tmp_path / "out.json"
    rc = _run(["growth", str(spec_dir / "z2.json"), "--radius", "1", "--fit", "-o", str(out)])
    assert rc == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: too few usable points in fit window\n"


def test_analyze_cap_exit_code(spec_dir, capsys):
    rc = _run(["analyze", str(spec_dir / "s4.json"), "--max-elements", "5"])
    assert rc == 2


def test_cap_message_names_last_complete_ball(spec_dir, capsys):
    rc = _run(["analyze", str(spec_dir / "s4.json"), "--max-elements", "10"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "cap exceeded: group exceeds cap of 10 elements (last complete ball: 9 elements)\n"
    )


def test_certify_subcommand(spec_dir, capsys):
    rc = _run(["certify", str(spec_dir / "f8c7.json"), "--emit-transcript"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    jsonschema.validate(rec, _schema("certificate"))
    assert rec["rank"] == 3 and rec["bound"] == 8
    assert rec["checks"]["datapoint"] is True
    assert len(rec["transcript"]["products"]) == 8


def test_certify_exits_3_on_a_false_check(spec_dir, capsys, monkeypatch):
    import solgrow.milnor as milnor

    products = milnor.subset_products
    monkeypatch.setattr(milnor, "subset_products", lambda T, xs: (lambda p: p[:1] + p[:-1])(products(T, xs)))
    rc = _run(["certify", str(spec_dir / "f8c7.json")])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err == "internal error: certificate checks failed: distinct_products\n"


def test_certify_with_normal_subgroup(spec_dir, tmp_path, capsys):
    from solgrow.elements import GenSet, MatFp

    center_gen = GenSet([MatFp(2, 3, [[2, 0], [0, 2]])])
    npath = tmp_path / "center.json"
    dump_genset(center_gen, str(npath))
    dump_genset(catalog("sl2(3)"), str(tmp_path / "sl23.json"))
    rc = _run(["certify", str(tmp_path / "sl23.json"), "--normal", str(npath)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["normal_order"] == 2 and rec["rank"] == 2


def test_certify_normal_on_a_one_way_spec(tmp_path, capsys):
    # generators not closed under inverses, walked over X alone: the
    # quotient must measure its words over the same steps as the group
    dump_genset(GenSet(list(catalog("sl2(3)").elements), symmetric=False), str(tmp_path / "g.json"))
    dump_genset(GenSet([MatFp(2, 3, [[2, 0], [0, 2]])]), str(tmp_path / "n.json"))
    rc = _run(["certify", str(tmp_path / "g.json"), "--normal", str(tmp_path / "n.json")])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    rec = json.loads(captured.out)
    assert rec["normal_order"] == 2 and rec["rank"] == 2 and rec["checks"]["distinct_products"]


@pytest.mark.parametrize(
    "generator",
    [
        MatFp(2, 3, [[2, 0], [0, 1]]),  # same variant and degree, determinant 2
        MatFp(3, 3, [[2, 0, 0], [0, 2, 0], [0, 0, 1]]),  # another degree
        Perm([1, 0]),  # another variant
    ],
    ids=["det2", "degree3", "perm"],
)
def test_certify_normal_generator_outside_the_group(tmp_path, capsys, generator):
    dump_genset(GenSet([generator]), str(tmp_path / "n.json"))
    dump_genset(catalog("sl2(3)"), str(tmp_path / "sl23.json"))
    rc = _run(["certify", str(tmp_path / "sl23.json"), "--normal", str(tmp_path / "n.json")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == "error: normal-subgroup generator is not a group member\n"


def test_catalog_subcommand(tmp_path, capsys):
    rc = _run(["catalog", "s3wrs2", "-o", str(tmp_path / "w.json")])
    assert rc == 0
    rec = json.loads((tmp_path / "w.json").read_text())
    assert rec["variant"] == "perm" and rec["degree"] == 6
    rc2 = _run(["analyze", str(tmp_path / "w.json")])
    assert rc2 == 0


def test_analyze_treeauto_and_lamplighter_growth(tmp_path, capsys):
    dump_genset(catalog("s4tower(1)"), str(tmp_path / "w1.json"))
    rc = _run(["analyze", str(tmp_path / "w1.json")])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["order"] == 24 and rec["derived_length"] == 3
    dump_genset(catalog("lamplighter"), str(tmp_path / "ll.json"))
    rc = _run(["growth", str(tmp_path / "ll.json"), "--radius", "4"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "radius,gamma" and lines[1] == "0,1"


def test_invariant_violation_exit_code(spec_dir, monkeypatch, capsys):
    # a failed internal check exits 3, apart from invalid input (1) and caps (2)
    import numpy as np

    from solgrow.table import FiniteGroupTable

    def uneven_table(_T):
        swap = np.array([1, 0], dtype=np.int32)
        return FiniteGroupTable([1], [1, -1], [swap, np.array([0], dtype=np.int32)])

    monkeypatch.setattr("solgrow.soluble.analyze_record", uneven_table)
    assert _run(["analyze", str(spec_dir / "s4.json")]) == 3
    assert capsys.readouterr().err == "internal error: step actions differ in length\n"


@pytest.mark.parametrize("argv", [["bounds", "--n", "0"], ["bounds", "--n", "-3"]], ids=" ".join)
def test_bounds_degree_below_one_is_an_input_error(argv, capsys):
    # "--n 0" parses without argparse, "--n -3" through it: both reach cmd_bounds
    assert (_plain_args(argv) is None) == (argv[-1] == "-3")
    assert _run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --n must be >= 1\n"


# "--max-elements 0" parses without argparse, the other two through it
@pytest.mark.parametrize(
    "cap", [["--max-elements", "0"], ["--max-elements", "-3"], ["--max-elements=0"]], ids=" ".join
)
@pytest.mark.parametrize("command", ["analyze", "mu", "certify", "growth"])
def test_cap_below_one_is_an_input_error(spec_dir, capsys, command, cap):
    radius = ["--radius", "3"] if command == "growth" else []
    assert _run([command, str(spec_dir / "s4.json"), *radius, *cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --max-elements must be positive\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "s4.json", "-o"],
        ["mu", "q8.json", "-o"],
        ["bounds", "--n", "3", "-o"],
        ["verify-cases", "--quick", "-o"],
        ["growth", "z2.json", "--radius", "2", "-o"],
        ["growth", "z2.json", "--radius", "2", "--csv"],
        ["certify", "f8c7.json", "-o"],
        ["catalog", "s4", "-o"],
    ],
    ids=" ".join,
)
def test_unwritable_output_path_is_an_input_error(spec_dir, tmp_path, capsys, argv):
    bad = str(tmp_path / "missing" / "out")
    argv = [str(spec_dir / a) if a.endswith(".json") else a for a in argv]
    assert _run([*argv, bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ") and err.count("\n") == 1


def test_catalog_output_matches_dump_genset(tmp_path):
    out, dumped = tmp_path / "out.json", tmp_path / "dumped.json"
    assert _run(["catalog", "s4wrs2", "-o", str(out)]) == 0
    dump_genset(catalog("s4wrs2"), str(dumped))
    assert out.read_bytes() == dumped.read_bytes()


@pytest.mark.parametrize("radius", [["--radius", "-1"], ["--radius=-1"]], ids=" ".join)
def test_growth_negative_radius_is_an_input_error(spec_dir, radius):
    # an error line and exit 1, not the traceback of growth_table's ValueError
    out = subprocess.run(
        [sys.executable, "-m", "solgrow.cli", "growth", str(spec_dir / "z2.json"), *radius],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr == "error: --radius must be >= 0\n" and "Traceback" not in out.stderr


def test_closed_stdout_exits_quietly():
    # the reader closes the pipe before anything is written: no traceback,
    # and the documented exit code
    proc = subprocess.Popen(
        [sys.executable, "-m", "solgrow.cli", "catalog", "s3wrs3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def _child_env() -> dict:
    import solgrow

    return dict(os.environ, PYTHONPATH=str(Path(solgrow.__file__).parents[1]))


# On Linux a child's ru_maxrss starts from the high-water mark of the
# process that spawned it, so the CLI is started from a small launcher
# rather than from the test process, whose peak can be far larger.
_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_pid, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _child_peak_rss_mib(args: list[str]) -> float:
    """Peak RSS of a `python -m solgrow.cli` child, from its own rusage."""
    cmd = [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "solgrow.cli", *args]
    out = subprocess.run(
        cmd, env=_child_env(), capture_output=True, text=True, check=True, timeout=300
    )
    code, maxrss_kib = map(int, out.stdout.split())
    assert code == 0
    return maxrss_kib / 1024


def test_analyze_reads_dense_rows_without_the_whole_table(tmp_path):
    # agl1(64) has 4,032 elements, so its whole int32 product table would
    # be 62 MiB; analyze keeps no product table, only step actions.
    spec = tmp_path / "agl1_64.json"
    dump_genset(catalog("agl1(64)"), str(spec))
    startup = _child_peak_rss_mib(["--help"])
    analyze = _child_peak_rss_mib(["analyze", str(spec)])
    assert analyze - startup < 4032**2 * 4 / 2**20 / 2


def test_unknown_catalog_name_exit(capsys):
    assert _run(["catalog", "nonsense"]) == 1


def test_invalid_spec_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"variant": "perm", "degree": 2, "generators": [[1, 0]], "x": 1}')
    assert _run(["analyze", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert _run(["analyze", str(missing)]) == 1


def test_determinism_byte_identical(spec_dir, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"a{i}.json"
        assert _run(["analyze", str(spec_dir / "s4.json"), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    certs = []
    for i in range(2):
        out = tmp_path / f"c{i}.json"
        assert _run(["certify", str(spec_dir / "f8c7.json"), "-o", str(out)]) == 0
        certs.append(out.read_bytes())
    assert certs[0] == certs[1]
    csvs = []
    for i in range(2):
        out = tmp_path / f"g{i}.csv"
        rc = _run(["growth", str(spec_dir / "z2.json"), "--radius", "8", "--csv", str(out)])
        assert rc == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_env_cap_override(spec_dir, capsys, monkeypatch):
    monkeypatch.setenv("SOLGROW_MAX_ELEMENTS", "5")
    assert _run(["analyze", str(spec_dir / "s4.json")]) == 2
    monkeypatch.setenv("SOLGROW_MAX_ELEMENTS", "bogus")
    assert _run(["analyze", str(spec_dir / "s4.json")]) == 1
    capsys.readouterr()
    monkeypatch.setenv("SOLGROW_MAX_ELEMENTS", "0")
    assert _run(["analyze", str(spec_dir / "s4.json")]) == 1
    assert capsys.readouterr().err == "error: SOLGROW_MAX_ELEMENTS must be positive\n"


_PLAIN = [
    ["analyze", "g.json"],
    ["analyze", "g.json", "-o", "out.json", "--max-elements", "100"],
    ["mu", "g.json", "--method", "bruteforce"],
    ["mu", "--out", "o.json", "g.json"],
    ["bounds", "--n", "5"],
    ["verify-cases", "--quick", "-o", "o.json"],
    ["verify-cases"],
    ["growth", "g.json", "--radius", "12", "-o", "o.json", "--fit"],
    ["growth", "g.json", "--radius", " 3", "--csv", "g.csv"],
    ["certify", "g.json", "--normal", "n.json", "--emit-transcript"],
    ["catalog", "s4", "-o", ""],
]

# argparse handles these: help, abbreviations, "--opt=value", repeats, values
# that start with "-", bad values and missing or extra arguments.
_NOT_PLAIN = [
    [],
    ["-h"],
    ["nope", "g.json"],
    ["analyze", "--help"],
    ["analyze", "g.json", "--max", "5"],
    ["analyze", "g.json", "--out=o.json"],
    ["analyze", "g.json", "-o", "a", "-o", "b"],
    ["analyze", "g.json", "-o"],
    ["analyze", "-"],
    ["analyze"],
    ["analyze", "g.json", "extra"],
    ["bounds", "--n", "-3"],
    ["bounds", "--n", "x"],
    ["bounds"],
    ["mu", "g.json", "--method", "slow"],
    ["growth", "g.json"],
    ["verify-cases", "--quick", "--quick"],
]


@pytest.mark.parametrize("argv", _PLAIN, ids=" ".join)
def test_plain_argv_parses_as_argparse_does(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", _NOT_PLAIN, ids=" ".join)
def test_other_argv_is_left_to_argparse(argv):
    assert _plain_args(argv) is None


def test_plain_argv_reads_the_cap_from_the_environment(monkeypatch):
    monkeypatch.setenv("SOLGROW_MAX_ELEMENTS", "7")
    assert _plain_args(["analyze", "g.json"]).max_elements == 7


# sha256 of the verify-cases output bytes; the full one is also the
# benchmark's reference (perfbench/reference.json)
_VERIFY_CASES_SHA256 = {
    "full": "a8140de272e862559e8132d9a2b8cab425ddb3a006117c335fa1e1e5b388521a",
    "quick": "5e2f6a5ad1bc8d706d4c361dada3fd15ce9ca2158fb6c70c5a2d0de3f68be637",
}


def test_verify_cases_full_pinned(tmp_path):
    out = tmp_path / "cases.json"
    assert _run(["verify-cases", "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _VERIFY_CASES_SHA256["full"]


def test_verify_cases_quick(tmp_path):
    out = tmp_path / "cases.json"
    rc = _run(["verify-cases", "--quick", "-o", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _VERIFY_CASES_SHA256["quick"]
    rec = json.loads(out.read_text())
    jsonschema.validate(rec, _schema("verify_cases"))
    assert rec["pass"] is True
    modes = {c["mode"] for c in rec["cases"]}
    assert modes == {"exhaustive", "witness"}
    out2 = tmp_path / "cases2.json"
    assert _run(["verify-cases", "--quick", "-o", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()
