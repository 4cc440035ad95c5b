import io
import json
import subprocess
import sys

import pytest

from togglekit.cli import main
from togglekit.posets import triangle_poset
from togglekit.serialize import dumps_canonical, poset_to_json

T_JSON = {"rows": [[1, 2, 2], [3, 5, 5]], "max_entry": 5}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_combinatorial_orbit_listing(capsys):
    code, out, err = run_cli(
        capsys,
        "orbit", "--regime", "combinatorial", "--map", "rowmotion",
        "--shape", "2x2", "--start", "w,x",
    )
    assert code == 0
    assert out == "# elements: w,x,y,z\n{w,x}\n{w,y}\nperiod: 2\n"


def test_combinatorial_promotion_orbit(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--regime", "combinatorial", "--map", "promotion",
        "--shape", "2x2", "--start", "w,x",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "{w,x}"
    assert lines[2] == "{}"
    assert lines[-1] == "period: 4"


def test_birational_orbit_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--regime", "birational", "--shape", "2x2", "--start", "1,2,3,4",
    )
    assert code == 0
    assert out == (
        "# elements: w,x,y,z\n"
        "(1,2,3,4)\n"
        "(1/4,5/8,5/12,5/4)\n"
        "(4/5,1/3,1/2,5/6)\n"
        "(6/5,12/5,8/5,1)\n"
        "period: 4\n"
    )


def test_pl_orbit_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--regime", "pl", "--shape", "2x2",
        "--start", "1/10,2/10,3/10,4/10",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "(1/10,1/5,3/10,2/5)"
    assert lines[2] == "(3/5,4/5,7/10,9/10)"
    assert lines[-1] == "period: 4"


def test_orbit_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--regime", "birational", "--shape", "2x2",
        "--start", "1,2,3,4", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 4
    assert doc["states"][1] == ["1/4", "5/8", "5/12", "5/4"]
    assert doc["poset"]["rectangle"] == [2, 2]


def test_orbit_cap_exceeded_exits_1(capsys):
    code, _, err = run_cli(
        capsys,
        "orbit", "--regime", "birational", "--shape", "2x2",
        "--start", "1,2,3,4", "--cap", "2",
    )
    assert code == 1
    assert "error" in err


def test_orbit_element_labels_on_larger_grids(capsys):
    code, out, _ = run_cli(
        capsys,
        "orbit", "--regime", "combinatorial", "--shape", "2x3", "--start", "1.1,2.1",
    )
    assert code == 0
    assert out.startswith("# elements: 1.1,2.1,1.2,2.2,1.3,2.3\n")
    assert "{1.1,2.1}" in out


def test_orbit_rejects_bad_start_length(capsys):
    code, _, err = run_cli(
        capsys,
        "orbit", "--regime", "pl", "--shape", "2x2", "--start", "1/10,1/5",
    )
    assert code == 2
    assert "4 elements" in err


def test_orbit_rejects_non_ideal_start(capsys):
    code, _, err = run_cli(
        capsys,
        "orbit", "--regime", "combinatorial", "--shape", "2x2", "--start", "x",
    )
    assert code == 2


def test_orbit_needs_a_poset(capsys):
    code, _, err = run_cli(capsys, "orbit", "--regime", "pl", "--start", "0")
    assert code == 2
    assert "--shape" in err


def test_shape_and_poset_are_exclusive(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(dumps_canonical(poset_to_json(triangle_poset(2))))
    code, _, err = run_cli(
        capsys,
        "orbit", "--regime", "pl", "--shape", "2x2", "--poset", str(path),
        "--start", "0,0,0,0",
    )
    assert code == 2


def test_verify_passes_and_prints_lines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "order", "--shape", "2x2", "--samples", "5", "--seed", "9"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite: order  seed: 9"
    assert lines[-1] == "result: pass"
    assert all(line.startswith("PASS ") for line in lines[1:-1])


def test_verify_seed_reports_are_byte_identical(capsys):
    args = ("verify", "homomesy", "--shape", "2x2", "--samples", "6", "--seed", "21", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["seed"] == 21


def test_verify_env_seed_matches_flag(monkeypatch, capsys):
    code, flagged, _ = run_cli(
        capsys, "verify", "vertex", "--shape", "2x2", "--samples", "4",
        "--seed", "33", "--json",
    )
    assert code == 0
    monkeypatch.setenv("TOGGLEKIT_SEED", "33")
    code, via_env, _ = run_cli(
        capsys, "verify", "vertex", "--shape", "2x2", "--samples", "4", "--json"
    )
    assert code == 0
    assert via_env == flagged


def test_verify_reciprocity_single_start(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "reciprocity", "--shape", "2x2",
        "--samples", "1", "--start", "1,2,3,4",
    )
    assert code == 0
    assert "(1 inputs)" in out


def test_verify_bridge_with_shape(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "bridge", "--shape", "2x3x5", "--samples", "5", "--seed", "2"
    )
    assert code == 0
    assert "bender-knuth-matches-file-toggle-2x3-entries-5" in out


def test_verify_bridge_rejects_flat_shape(capsys):
    code, _, err = run_cli(
        capsys, "verify", "bridge", "--shape", "2x3", "--samples", "5"
    )
    assert code == 2
    assert "AxBxN" in err


def test_verify_rejects_triangle_for_rectangle_suites(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(dumps_canonical(poset_to_json(triangle_poset(3))))
    code, _, err = run_cli(
        capsys, "verify", "order", "--poset", str(path), "--samples", "2"
    )
    assert code == 2
    assert "rectangle" in err


def test_verify_poset_file_for_generic_suites(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text(dumps_canonical(poset_to_json(triangle_poset(3))))
    code, out, _ = run_cli(
        capsys, "verify", "three-step", "--poset", str(path),
        "--samples", "5", "--seed", "4",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", "vertex", "--poset", str(path), "--samples", "4", "--seed", "4"
    )
    assert code == 0


def test_verify_missing_poset_file(capsys):
    code, _, err = run_cli(
        capsys, "verify", "order", "--poset", "/nonexistent.json", "--samples", "2"
    )
    assert code == 2


def test_verify_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "nonsense", "--shape", "2x2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_bad_shape_strings(capsys):
    for shape in ("2", "0x2", "axb", "2x2x2x2"):
        code, _, err = run_cli(
            capsys, "orbit", "--regime", "pl", "--shape", shape, "--start", "0"
        )
        assert code == 2, shape


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "order", "--shape", "2x2", "--samples", "-1"),
        ("verify", "order", "--shape", "2x2", "--cap", "0"),
        ("orbit", "--regime", "pl", "--shape", "2x2", "--start", "1,1,1,1", "--cap", "0"),
        ("orbit", "--regime", "combinatorial", "--shape", "2x2", "--start", "w", "--cap", "-1"),
    ],
)
def test_negative_samples_and_cap_below_one_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_verify_order_refuses_too_many_ideals(capsys):
    code, out, err = run_cli(capsys, "verify", "order", "--shape", "15x15", "--samples", "1")
    assert code == 2
    assert out == ""
    assert "155117520 order ideals" in err and err.count("\n") == 1


def test_tableau_to_gt(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(T_JSON))
    code, out, _ = run_cli(capsys, "tableau", "to-gt", "--input", str(path))
    assert code == 0
    assert out == "3 3 0 0 0\n3 1 0 0\n3 1 0\n3 0\n1\n"


def test_tableau_to_gt_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T_JSON)))
    code, out, _ = run_cli(capsys, "tableau", "to-gt")
    assert code == 0
    assert out.splitlines()[0] == "3 3 0 0 0"


def test_tableau_to_array_diamond(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(T_JSON))
    code, out, _ = run_cli(capsys, "tableau", "to-array", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# elements: 1.1,2.1,1.2,2.2,1.3,2.3"
    assert lines[1] == "# values: (0,1/3,1/3,1,1/3,1)"
    assert lines[2:] == ["1", "1/3 1", "1/3 1/3", "0"]


def test_tableau_promote_and_json(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(T_JSON))
    code, out, _ = run_cli(capsys, "tableau", "promote", "--input", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_entry"] == 5
    assert len(doc["rows"]) == 2


def test_tableau_bridge_check(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(T_JSON))
    code, out, _ = run_cli(capsys, "tableau", "bridge-check", "--input", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("left:  (")
    assert lines[1].startswith("right: (")
    assert lines[2] == "equal: true"
    assert lines[0].removeprefix("left:  ") == lines[1].removeprefix("right: ")


def test_tableau_rejects_invalid_rows(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": [[2, 1]], "max_entry": 3}))
    code, _, err = run_cli(capsys, "tableau", "to-gt", "--input", str(path))
    assert code == 2


def test_tableau_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "tableau", "to-gt", "--input", str(path))
    assert code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "togglekit", "orbit", "--regime", "combinatorial",
         "--shape", "2x2", "--start", "w,x"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "{w,x}"


MALFORMED = [
    ("verify-poset", {"size": 2, "labels": ["a", "b"]}, "covers"),
    ("verify-poset", [[0, 1]], "object"),
    ("verify-poset", {"size": 2, "covers": [], "labels": [{"a": 1}, "b"]}, "labels"),
    ("tableau", {"rows": [[1, 2], [3, 4]]}, "max_entry"),
]


@pytest.mark.parametrize("kind, doc, needle", MALFORMED)
def test_malformed_input_files_exit_2_without_traceback(tmp_path, kind, doc, needle):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    if kind == "tableau":
        argv = ["tableau", "to-gt", "--input", str(path)]
    else:
        argv = ["verify", "vertex", "--poset", str(path), "--samples", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "togglekit", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert needle in proc.stderr


@pytest.mark.parametrize("suite", ["order", "homomesy", "reciprocity", "quotient"])
def test_wrong_rectangle_field_exits_2_without_traceback(tmp_path, suite):
    doc = poset_to_json(triangle_poset(3))
    doc["rectangle"] = [2, 3]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "togglekit", "verify", suite, "--poset", str(path),
         "--samples", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "rectangle [2, 3] does not match" in proc.stderr
