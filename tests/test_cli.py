import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_golden_reports import _truncated_promotion

from togglekit import cli, verify
from togglekit.cli import main
from togglekit.posets import Poset, rectangle_poset, triangle_poset
from togglekit.verify import SUITES
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


def test_orbit_start_takes_plain_labels_and_indices(tmp_path, capsys):
    path = tmp_path / "chain.json"
    chain = Poset(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    path.write_text(dumps_canonical(poset_to_json(chain)))
    code, out, _ = run_cli(
        capsys, "orbit", "--regime", "combinatorial", "--poset", str(path), "--start", "a,1"
    )
    assert code == 0
    assert out == "# elements: a,b,c\n{a,b}\n{a,b,c}\n{}\n{a}\nperiod: 4\n"


def test_orbit_rejects_bad_start_length(capsys):
    code, _, err = run_cli(
        capsys,
        "orbit", "--regime", "pl", "--shape", "2x2", "--start", "1/10,1/5",
    )
    assert code == 2
    assert "4 elements" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--regime", "pl", "--shape", "1x1", "--start", "1e5000"),
        ("verify", "reciprocity", "--shape", "1x1", "--start", "1e4000000"),
    ],
)
def test_huge_exponents_are_not_rationals(capsys, argv):
    'Refused before 10**e is built: an exit 2 with one line, not a failed print.'
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: not a rational: '1e") and err.count("\n") == 1


def test_orbit_rejects_non_ideal_start(capsys):
    'The refusal names the start and its missing lower cover by their display labels.'
    for shape, start, message in [
        ("2x2", "x", "start {x} is not down-closed: it holds x but not w, which x covers"),
        ("2x2", "1.2", "start {y} is not down-closed: it holds y but not w, which y covers"),
        ("2x3", "2.2,1.1", "start {1.1,2.2} is not down-closed: it holds 2.2 but not 2.1, "
         "which 2.2 covers"),
    ]:
        code, out, err = run_cli(
            capsys,
            "orbit", "--regime", "combinatorial", "--shape", shape, "--start", start,
        )
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("orbit", "--regime", "combinatorial", "--shape", "2x2", "--start", "4"),
         "element index 4 outside 0..3"),
        (("verify", "bridge", "--start", "1", "--samples", "1"),
         "the bridge suite does not take --start"),
        (("verify", "vertex", "--shape", "2x2", "--start", "1,1,1,1", "--samples", "1"),
         "the vertex suite does not take --start"),
    ],
)
def test_cli_refusals_name_the_bad_argument(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


def test_verify_names_a_non_integer_env_seed(monkeypatch, capsys):
    monkeypatch.setenv("TOGGLEKIT_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "order", "--shape", "2x2")
    assert code == 2 and out == ""
    assert err == "error: TOGGLEKIT_SEED must be an integer, got 'abc'\n"


def test_verify_reciprocity_single_start(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "reciprocity", "--shape", "2x2",
        "--samples", "1", "--start", "1,2,3,4",
    )
    assert code == 0
    assert "(1 inputs)" in out


@pytest.mark.parametrize(
    "suite", ["order", "three-step", "recombination", "reciprocity", "homomesy"]
)
def test_verify_refuses_a_bad_start_before_any_walk(capsys, monkeypatch, suite):
    'A start that is a PL array but not a birational one exits 2 before the PL checks run.'
    walked = []
    for name in ("walks", "three_step", "reciprocity_check", "orbit_statistics"):
        monkeypatch.setattr(verify, name, lambda *args, name=name, **kwargs: walked.append(name))
    code, out, err = run_cli(capsys, "verify", suite, "--shape", "2x2", "--start", "1,2,3,-1")
    assert (code, out, walked) == (2, "", [])
    assert err == "error: birational arrays must be strictly positive, got -1\n"


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


@pytest.mark.parametrize(
    "shape, message",
    [
        ("1x100000000x2", "a 1x100000000 tableau has 100000000 entries, more than the limit of 20000"),
        ("2x2x100000", "max entry 100000 is above the limit of 20000"),
        # 448 * 447 + 448**2 units: one past the largest 1x1 shape.
        (
            "1x1x448",
            "a 1x1x448 bridge sample costs 400960 units of work, more than the limit of 400000",
        ),
        # Rows of 20,000 entries: 140 * 139 + 140**2 * 21 units.
        (
            "1x20000x140",
            "a 1x20000x140 bridge sample costs 431060 units of work, more than the limit of 400000",
        ),
    ],
)
def test_verify_bridge_refuses_a_shape_above_the_tableau_limits(capsys, shape, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "bridge", "--shape", shape, "--samples", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_verify_bridge_runs_the_largest_shape_under_the_work_limit(capsys):
    # 447 * 446 + 447**2 = 399,171 units of the 400,000 allowed.
    code, out, err = run_cli(
        capsys, "verify", "bridge", "--shape", "1x1x447", "--samples", "1", "--seed", "1"
    )
    assert code == 0 and err == ""
    assert "tableau-promotion-power-447-is-identity-1x1-entries-447" in out


def test_verify_bridge_names_the_tableau_shape_it_needs(capsys):
    code, out, err = run_cli(capsys, "verify", "bridge", "--shape", "1x2x0", "--samples", "1")
    assert code == 2 and out == ""
    assert err == "error: bad shape '1x2x0'; expected AxBxN\n"


def test_verify_bridge_names_an_empty_array(capsys):
    code, out, err = run_cli(capsys, "verify", "bridge", "--shape", "1x1x1", "--samples", "2")
    assert code == 2 and out == ""
    assert err == (
        "error: a 1x1x1 bridge sample has no array: max entry 1 must exceed the row count 1\n"
    )


@pytest.mark.parametrize(
    "shape, rows, max_entry", [("2x3x2", 2, 2), ("3x2x2", 3, 2), ("1x1x1", 1, 1)]
)
@pytest.mark.parametrize("samples", ["0", "1"])
def test_verify_bridge_refuses_a_shape_with_no_array_before_any_draw(
    capsys, shape, rows, max_entry, samples
):
    code, out, err = run_cli(capsys, "verify", "bridge", "--shape", shape, "--samples", samples)
    assert code == 2 and out == ""
    assert err == (
        f"error: a {shape} bridge sample has no array: "
        f"max entry {max_entry} must exceed the row count {rows}\n"
    )


def test_verify_bridge_passes_the_smallest_shape_with_an_array_row(capsys):
    code, out, err = run_cli(
        capsys, "verify", "bridge", "--shape", "2x3x3", "--samples", "1", "--seed", "1"
    )
    assert code == 0 and err == ""
    assert "result: pass" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "--regime", "pl", "--shape", "1x20001", "--start", "1"),
        ("orbit", "--regime", "pl", "--shape", "100000x100000", "--start", "1"),
        ("verify", "order", "--shape", "1x20001", "--samples", "1"),
        ("verify", "order", "--shape", "100x100000", "--samples", "1"),
    ],
)
def test_shape_above_the_size_limit_exits_2_before_building(monkeypatch, capsys, argv):
    def refuse(a, b):
        raise AssertionError(f"rectangle_poset({a}, {b}) was called")

    monkeypatch.setattr(cli, "rectangle_poset", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    shape = argv[argv.index("--shape") + 1]
    a, b = map(int, shape.split("x"))
    assert err == f"error: shape {shape}: poset size {a * b} is above the limit of 20000\n"


def test_shape_at_the_size_limit_is_built(capsys):
    code, out, err = run_cli(
        capsys,
        "orbit", "--regime", "combinatorial", "--shape", "1x20000", "--start", "", "--cap", "1",
    )
    assert code == 1 and out == ""
    assert err == "error: no return to start within cap=1 steps\n"


def test_poset_file_above_the_size_limit_exits_2(tmp_path, capsys):
    size = 40000
    chain = {"size": size, "covers": [[i, i + 1] for i in range(size - 1)],
             "labels": list(range(size))}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain))
    code, out, err = run_cli(
        capsys, "orbit", "--regime", "combinatorial", "--poset", str(path),
        "--start", "", "--cap", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the limit of 20000" in err


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


@pytest.mark.parametrize("action", ["to-array", "bridge-check"])
def test_tableau_with_as_many_rows_as_entries_names_an_empty_array(tmp_path, capsys, action):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rows": [[1]], "max_entry": 1}))
    code, out, err = run_cli(capsys, "tableau", action, "--input", str(path))
    assert code == 2 and out == ""
    assert err == "error: the array on [1]x[0] is empty: max_entry 1 must exceed the row count 1\n"


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


@pytest.mark.parametrize("action", ["to-gt", "to-array", "promote", "bridge-check"])
def test_tableau_with_a_huge_max_entry_exits_2_at_once(tmp_path, action):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"rows": [[1]], "max_entry": 10**7}))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "togglekit", "tableau", action, "--input", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "above the limit" in proc.stderr


SQUARE_JSON = poset_to_json(rectangle_poset(2, 2))
ORBIT_TEXT = "# elements: w,x,y,z\n{}period: {}\n"


def _orbit_doc(regime, map_name, states):
    return {
        "map": map_name, "period": len(states), "poset": SQUARE_JSON,
        "regime": regime, "states": states,
    }


def _order_report(passed, checks):
    'An order-suite report on [2]x[2] at seed 1; checks are (regime, inputs, violations).'
    return {
        "checks": [
            {
                "check": f"{name}-power-4-is-identity", "inputs": inputs,
                "pass": name == "rowmotion" or not violations, "regime": regime,
                "violations": violations if name == "promotion" else [],
            }
            for regime, inputs, violations in checks
            for name in ("rowmotion", "promotion")
        ],
        "pass": passed, "seed": 1, "suite": "order",
    }


PL_STATES = [
    ["1/10", "1/5", "3/10", "2/5"], ["1/5", "3/10", "4/5", "9/10"],
    ["3/5", "4/5", "7/10", "9/10"], ["1/10", "7/10", "1/5", "4/5"],
]
BIRATIONAL_STATES = [
    ["1", "2", "3", "4"], ["1/4", "5/8", "5/12", "5/4"],
    ["4/5", "1/3", "1/2", "5/6"], ["6/5", "12/5", "8/5", "1"],
]
TRUNCATED_VIOLATIONS = [
    [{"start": []}, {"start": [0]}, {"start": [0, 1]}],
    [
        {"start": ["1/5", "9/10", "1/5", "9/10"]},
        {"start": ["3/20", "3/4", "7/10", "3/4"]},
        {"start": ["1", "1", "1", "1"]},
    ],
    [
        {"start": ["20", "5/3", "8/19", "4/11"]},
        {"start": ["1", "1/18", "1/13", "1/2"]},
        {"start": ["1/17", "8/15", "8/9", "2/3"]},
    ],
]
TRUNCATED_CHECKS = list(zip(["combinatorial", "pl", "birational"], [6, 4, 4], TRUNCATED_VIOLATIONS))
TRUNCATED_TEXT = """\
suite: order  seed: 1
PASS rowmotion-power-4-is-identity [combinatorial] (6 inputs)
FAIL promotion-power-4-is-identity [combinatorial] (6 inputs)
     counterexample: {"start": []}
     counterexample: {"start": [0]}
     counterexample: {"start": [0, 1]}
PASS rowmotion-power-4-is-identity [pl] (4 inputs)
FAIL promotion-power-4-is-identity [pl] (4 inputs)
     counterexample: {"start": ["1/5", "9/10", "1/5", "9/10"]}
     counterexample: {"start": ["3/20", "3/4", "7/10", "3/4"]}
     counterexample: {"start": ["1", "1", "1", "1"]}
PASS rowmotion-power-4-is-identity [birational] (4 inputs)
FAIL promotion-power-4-is-identity [birational] (4 inputs)
     counterexample: {"start": ["20", "5/3", "8/19", "4/11"]}
     counterexample: {"start": ["1", "1/18", "1/13", "1/2"]}
     counterexample: {"start": ["1/17", "8/15", "8/9", "2/3"]}
result: fail
"""
PASSING_TEXT = """\
suite: order  seed: 1
PASS rowmotion-power-4-is-identity [combinatorial] (6 inputs)
PASS promotion-power-4-is-identity [combinatorial] (6 inputs)
PASS rowmotion-power-4-is-identity [pl] (2 inputs)
PASS promotion-power-4-is-identity [pl] (2 inputs)
PASS rowmotion-power-4-is-identity [birational] (2 inputs)
PASS promotion-power-4-is-identity [birational] (2 inputs)
result: pass
"""
TABLEAU_ARRAY = ["0", "1/3", "1/3", "1", "1/3", "1"]
BRIDGE_VALUES = ["1/3", "2/3", "1/3", "2/3", "2/3", "2/3"]

# name -> (patch or None, argv, exit code, text output, the document --json prints).
# Tableau actions read T_JSON from stdin.
RENDERINGS = {
    "orbit-combinatorial": (
        None,
        ["orbit", "--regime", "combinatorial", "--shape", "2x2", "--start", "w,x"],
        0,
        ORBIT_TEXT.format("{w,x}\n{w,y}\n", 2),
        _orbit_doc("combinatorial", "rowmotion", [[0, 1], [0, 2]]),
    ),
    "orbit-pl": (
        None,
        ["orbit", "--regime", "pl", "--map", "promotion", "--shape", "2x2",
         "--start", "1/10,1/5,3/10,2/5"],
        0,
        ORBIT_TEXT.format("".join(f"({','.join(s)})\n" for s in PL_STATES), 4),
        _orbit_doc("pl", "promotion", PL_STATES),
    ),
    "orbit-birational": (
        None,
        ["orbit", "--regime", "birational", "--shape", "2x2", "--start", "1,2,3,4"],
        0,
        ORBIT_TEXT.format("".join(f"({','.join(s)})\n" for s in BIRATIONAL_STATES), 4),
        _orbit_doc("birational", "rowmotion", BIRATIONAL_STATES),
    ),
    "verify-pass": (
        None,
        ["verify", "order", "--shape", "2x2", "--samples", "2", "--seed", "1"],
        0,
        PASSING_TEXT,
        _order_report(True, [("combinatorial", 6, []), ("pl", 2, []), ("birational", 2, [])]),
    ),
    "verify-fail": (
        _truncated_promotion,
        ["verify", "order", "--shape", "2x2", "--samples", "4", "--seed", "1"],
        1,
        TRUNCATED_TEXT,
        _order_report(False, TRUNCATED_CHECKS),
    ),
    "tableau-to-gt": (
        None,
        ["tableau", "to-gt"],
        0,
        "3 3 0 0 0\n3 1 0 0\n3 1 0\n3 0\n1\n",
        {"rows": [[3, 3, 0, 0, 0], [3, 1, 0, 0], [3, 1, 0], [3, 0], [1]]},
    ),
    "tableau-to-array": (
        None,
        ["tableau", "to-array"],
        0,
        "# elements: 1.1,2.1,1.2,2.2,1.3,2.3\n# values: (0,1/3,1/3,1,1/3,1)\n"
        "1\n1/3 1\n1/3 1/3\n0\n",
        {
            "array": {"boundary": ["0", "1"], "values": TABLEAU_ARRAY},
            "poset": poset_to_json(rectangle_poset(2, 3)),
        },
    ),
    "tableau-promote": (
        None,
        ["tableau", "promote"],
        0,
        "1 1 4\n2 4 5\n",
        {"max_entry": 5, "rows": [[1, 1, 4], [2, 4, 5]]},
    ),
    "tableau-bridge-check": (
        None,
        ["tableau", "bridge-check"],
        0,
        f"left:  ({','.join(BRIDGE_VALUES)})\nright: ({','.join(BRIDGE_VALUES)})\n"
        "equal: true\n",
        {"equal": True, "left": BRIDGE_VALUES, "right": BRIDGE_VALUES},
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(RENDERINGS))
def test_every_rendering_is_pinned_byte_for_byte(monkeypatch, capsys, name, as_json):
    patch, argv, code, text, doc = RENDERINGS[name]
    if patch is not None:
        patch(monkeypatch)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(T_JSON)))
    flags = ["--json"] if as_json else []
    assert run_cli(capsys, *argv, *flags) == (code, dumps_canonical(doc) if as_json else text, "")


def test_a_closed_stdout_is_a_one_line_error(monkeypatch, capsys):
    'A reader that goes away early, as "| head" does, gives one error line and exit 2.'

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["orbit", "--regime", "combinatorial", "--shape", "2x2", "--start", "w,x"])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


PACKAGE = Path(cli.__file__).parent


def _writes_stdout(node):
    'A print( that does not pass file=sys.stderr, or any use of sys.stdout.'
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "print":
        return not any(
            k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords
        )
    return isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"


def test_only_main_writes_to_stdout():
    'Commands return their output; cli.main alone prints it.'
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "cli.py":
            (main_def,) = [n for n in tree.body if getattr(n, "name", None) == "main"]
            allowed = {id(n) for n in ast.walk(main_def)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _writes_stdout(node) and id(node) not in allowed
        ]
    assert found == []


def _readme_examples():
    'The (command, shown output lines) of each "$ python -m togglekit" in README "Command line".'
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    examples = []
    for block in section.split("```sh\n")[1:]:
        lines = block.split("\n```")[0].split("\n")
        while lines:
            command = [lines.pop(0)]
            while command[-1].endswith("\\"):
                command.append(lines.pop(0))
            shown = []
            while lines and lines[0] and not lines[0].startswith("$ "):
                shown.append(lines.pop(0))
            while lines and not lines[0]:
                lines.pop(0)
            examples.append(("\n".join(command).removeprefix("$ "), shown))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "command, shown", README_EXAMPLES, ids=[f"example-{k}" for k in range(len(README_EXAMPLES))]
)
def test_readme_command_line_examples_print_what_they_show(command, shown):
    'A "..." line stands for any run of printed lines up to the next shown line.'
    assert "python -m togglekit" in command
    proc = subprocess.run(
        command.replace("python -m togglekit", f"{shlex.quote(sys.executable)} -m togglekit"),
        shell=True, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    pattern = "".join(
        r"(?:.*\n)*?" if line == "..." else re.escape(line) + "\n" for line in shown
    )
    assert re.fullmatch(pattern, proc.stdout), proc.stdout


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



@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "order", "--shape", "2x2", "--cap=--"],
        ["verify", "order", "--shape", "2x2", "--seed=--"],
        ["verify", "order", "--shape", "2x2", "--samples=--"],
        ["verify", "order", "--shape=--"],
        ["tableau", "to-gt", "--input=--"],
    ],
)
def test_a_dashes_value_is_a_usage_error(capsys, argv):
    'argparse turns "--opt=--" into an empty list; it must not reach the commands.'
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "expected one argument" in err and "Traceback" not in err


# -- fuzzing main(argv) --------------------------------------------------

# Valid parts are repeated so that many shapes get past parsing.
SHAPE_PARTS = ["1", "2", "3"] * 4 + ["0", "-1", " 2", "a", "", "1.5", "+3", "٣"]
ODD = st.sampled_from(["", "x", "1.5", "1e3", "--", "0x10", " 2", "٣", "-0"])
NUMBERS = st.integers(-1, 3).map(str) | ODD

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=False, width=16)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["size", "covers", "labels", "rc", "rectangle", "rows", "max_entry"]),
        inner,
        max_size=4,
    ),
    max_leaves=10,
)


@st.composite
def shapes(draw):
    count = draw(st.sampled_from([2, 2, 2, 2, 3, 1, 0]))
    parts = draw(st.lists(st.sampled_from(SHAPE_PARTS), min_size=count, max_size=count))
    return draw(st.sampled_from(["x", "X", "*", " x "])).join(parts)


@st.composite
def near_valid(draw, docs):
    'A valid document with one field deleted or replaced.'
    doc = dict(draw(st.sampled_from(docs)))
    key = draw(st.sampled_from(sorted(doc)))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(json_values)
    return json.dumps(doc)


POSET_DOCS = [poset_to_json(rectangle_poset(a, b)) for a in (1, 2, 3) for b in (1, 2, 3)]
POSET_DOCS += [poset_to_json(triangle_poset(n)) for n in (1, 2, 3)]
TABLEAU_DOCS = [
    T_JSON,
    {"rows": [[1, 1], [2, 3]], "max_entry": 3},
    {"rows": [[1]], "max_entry": 2},
]


def files(docs):
    'Text of a JSON file: valid, near-valid, any JSON value, or not JSON at all.'
    return st.one_of(
        st.sampled_from(docs).map(json.dumps),
        near_valid(docs),
        json_values.map(json.dumps),
        st.text(max_size=12),
    )


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors, --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        errors = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, err.getvalue())


FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(
    suite=st.sampled_from(sorted(SUITES) + ["nosuch", "ORDER", ""]),
    shape=shapes(),
    samples=st.integers(0, 3).map(str) | NUMBERS,
    cap=st.none() | st.integers(1, 40).map(str) | NUMBERS,
    seed=st.none() | st.integers(-(10**20), 10**20).map(str) | ODD,
)
def test_fuzzed_verify_arguments_exit_cleanly(suite, shape, samples, cap, seed):
    argv = ["verify", suite, "--samples", samples, f"--shape={shape}"]
    for flag, value in (("--cap", cap), ("--seed", seed)):
        if value is not None:
            argv += [f"{flag}={value}"]
    assert_clean_exit(argv)


@FUZZ
@given(
    kind=st.sampled_from(["verify", "orbit", "tableau"]),
    suite=st.sampled_from(sorted(SUITES)),
    action=st.sampled_from(["to-gt", "to-array", "promote", "bridge-check"]),
    data=st.data(),
)
def test_fuzzed_input_files_exit_cleanly(tmp_path, kind, suite, action, data):
    path = tmp_path / "input.json"
    if kind == "tableau":
        path.write_text(data.draw(files(TABLEAU_DOCS)))
        argv = ["tableau", action, "--input", str(path)]
    else:
        path.write_text(data.draw(files(POSET_DOCS)))
        if kind == "verify":
            argv = ["verify", suite, "--poset", str(path), "--samples", "1", "--seed", "1"]
        else:
            argv = ["orbit", "--regime", "combinatorial", "--poset", str(path), "--start", ""]
    assert_clean_exit(argv)
