"""Acceptance gate: the nine headline guarantees at exact rational equality.

Every test prints one PASS/FAIL line so a full run reads as a checklist.
Where a guarantee carries a time budget it is enforced here: each worked
example under a second, the whole order-theorem batch under a minute.
Nothing is approximate — all comparisons are exact rationals.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

from togglekit import (
    BIRATIONAL,
    PL,
    OrderIdeal,
    Rat,
    SUITES,
    Tableau,
    bender_knuth,
    enumerate_ideals,
    file_toggle,
    orbit_statistic,
    promotion,
    quotient_sequence,
    reciprocity_check,
    recombine,
    rectangle_poset,
    rowmotion,
    rowmotion_ideal,
    standard_functionals,
    tableau_promotion,
    tableau_to_array,
    tableau_to_pattern,
    triangle_poset,
)
from togglekit.birational import file_toggle_swap_check, promotion_shift_check
from togglekit.homomesy import file_functional, homomesy_space_rank
from togglekit.rational import ONE
from togglekit.sampling import (
    random_polytope_point,
    random_positive_array,
    seeded_rng,
)

from helpers import bir_array, pl_array

SHAPES_8 = [(a, b) for a in range(1, 8) for b in range(1, 8) if a + b <= 8]
SHAPES_7 = [(a, b) for a in range(1, 7) for b in range(1, 7) if a + b <= 7]

SEED = 20260815


@contextmanager
def criterion(capsys, number, title):
    'Print exactly one PASS/FAIL line for the wrapped block.'
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {number}: {title}")
        raise
    with capsys.disabled():
        print(f"PASS criterion {number}: {title}")


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


@lru_cache(maxsize=None)
def shared_samples(a, b):
    'One fixed batch per shape, reused across the recombination/reciprocity/quotient gates.'
    poset = rectangle_poset(a, b)
    rng = seeded_rng(90_000 + 100 * a + b)
    birational = tuple(random_positive_array(BIRATIONAL, poset, rng) for _ in range(100))
    pl = tuple(PL.array(poset, random_polytope_point(poset, rng)) for _ in range(100))
    return poset, birational, pl


def test_criterion_1_worked_examples(capsys):
    with criterion(capsys, 1, "worked examples reproduced exactly, each under a second"):
        p = rectangle_poset(2, 2)

        with budget(1.0):
            assert rowmotion_ideal(OrderIdeal(p, [0, 1])) == OrderIdeal(p, [0, 2])

        with budget(1.0):
            f = pl_array(p, "1/10", "1/5", "3/10", "2/5")
            assert rowmotion(PL, f) == pl_array(p, "3/5", "4/5", "7/10", "9/10")
            assert promotion(PL, f) == pl_array(p, "1/5", "3/10", "4/5", "9/10")

        with budget(1.0):
            rho_orbit = [
                bir_array(p, "1", "2", "3", "4"),
                bir_array(p, "1/4", "5/8", "5/12", "5/4"),
                bir_array(p, "4/5", "1/3", "1/2", "5/6"),
                bir_array(p, "6/5", "12/5", "8/5", "1"),
            ]
            for row, expected in zip(rho_orbit, rho_orbit[1:]):
                assert rowmotion(BIRATIONAL, row) == expected
            assert rowmotion(BIRATIONAL, rho_orbit[-1]) == rho_orbit[0]

            pi_orbit = [
                bir_array(p, "1", "2", "5/12", "5/4"),
                bir_array(p, "1/4", "5/8", "1/2", "5/6"),
                bir_array(p, "4/5", "1/3", "8/5", "1"),
                bir_array(p, "6/5", "12/5", "3", "4"),
            ]
            for row, expected in zip(pi_orbit, pi_orbit[1:]):
                assert promotion(BIRATIONAL, row) == expected
            assert promotion(BIRATIONAL, pi_orbit[-1]) == pi_orbit[0]

        with budget(1.0):
            t = Tableau([[1, 2, 2], [3, 5, 5]], 5)
            assert tableau_to_pattern(t).rows == (
                (3, 3, 0, 0, 0),
                (3, 1, 0, 0),
                (3, 1, 0),
                (3, 0),
                (1,),
            )
            arr = tableau_to_array(t)
            assert arr.poset.rectangle_shape == (2, 3)
            assert arr.values == tuple(
                Rat(v) for v in ("0", "1/3", "1/3", "1", "1/3", "1")
            )


def test_criterion_2_order_theorems(capsys):
    title = "rowmotion and promotion have order a+b in every regime, all shapes a+b<=8"
    with criterion(capsys, 2, title):
        with budget(60.0):
            for a, b in SHAPES_8:
                poset = rectangle_poset(a, b)
                report = SUITES["order"](poset, samples=100, seed=SEED)
                assert report["pass"], (a, b, report)
                for check in report["checks"]:
                    if check["regime"] == "combinatorial":
                        assert check["inputs"] == len(enumerate_ideals(poset))
                    else:
                        assert check["inputs"] == 100


def test_criterion_3_three_step_factorization(capsys):
    title = "three-step map equals rowmotion: rectangles both regimes, triangles piecewise-linear"
    with criterion(capsys, 3, title):
        for a, b in SHAPES_8:
            report = SUITES["three-step"](rectangle_poset(a, b), samples=100, seed=SEED)
            assert report["pass"], (a, b, report)
            assert {c["regime"] for c in report["checks"]} == {"pl", "birational"}
            assert all(c["inputs"] == 100 for c in report["checks"])
        for n in (2, 3, 4):
            report = SUITES["three-step"](triangle_poset(n), samples=100, seed=SEED)
            assert report["pass"], (n, report)
            assert {c["regime"] for c in report["checks"]} == {"pl"}
            assert all(c["inputs"] == 100 for c in report["checks"])


def test_criterion_4_recombination_and_reciprocity(capsys):
    title = "diagonal shear conjugates promotion to rowmotion; antipodal reciprocity holds"
    with criterion(capsys, 4, title):
        for a, b in SHAPES_8:
            poset, birational, pl = shared_samples(a, b)
            for alg, arrays in ((BIRATIONAL, birational), (PL, pl)):
                for f in arrays:
                    assert recombine(alg, promotion(alg, f)) == rowmotion(
                        alg, recombine(alg, f)
                    )
                    ok, cells = reciprocity_check(alg, f)
                    assert ok, (a, b, alg.name, cells)


def test_criterion_5_file_quotients(capsys):
    title = "file quotients: neutral product, adjacent swaps, cyclic shift under promotion"
    with criterion(capsys, 5, title):
        for a, b in SHAPES_8:
            poset, birational, _ = shared_samples(a, b)
            for f in birational:
                q = quotient_sequence(BIRATIONAL, f)
                product = ONE
                for value in q:
                    product *= value
                assert product == ONE
                for k in range(1, a + b):
                    assert file_toggle_swap_check(BIRATIONAL, f, k), (a, b, k)
                assert promotion_shift_check(BIRATIONAL, f), (a, b)


def test_criterion_6_homomesy(capsys):
    title = "standard functionals are exactly homomesic, both maps, both regimes, a+b<=7"
    with criterion(capsys, 6, title):
        for a, b in SHAPES_7:
            report = SUITES["homomesy"](rectangle_poset(a, b), samples=50, seed=SEED)
            assert report["pass"], (a, b, report)

        p = rectangle_poset(2, 2)
        middle = file_functional(2, 2, 2)
        rows = [bir_array(p, "1", "2", "3", "4")]
        for _ in range(3):
            rows.append(rowmotion(BIRATIONAL, rows[-1]))
        assert [middle.monomial_value(row) for row in rows] == [
            Rat(v) for v in ("4", "5/16", "2/3", "6/5")
        ]
        value, period = orbit_statistic(BIRATIONAL, "rowmotion", middle, rows[0])
        assert value == ONE and period == 4


def test_criterion_7_homomesy_space_dimension(capsys):
    title = "sampled homomesy space has exactly the dimension the functionals span"
    with criterion(capsys, 7, title):
        for (a, b), expected_rank in (((2, 2), 3), ((2, 3), 5)):
            poset = rectangle_poset(a, b)
            functionals = standard_functionals(a, b)
            for map_name in ("rowmotion", "promotion"):
                rng = seeded_rng(SEED + a * 10 + b)
                arrays = [
                    PL.array(poset, random_polytope_point(poset, rng))
                    for _ in range(60)
                ]
                half = homomesy_space_rank(PL, map_name, arrays[:30], functionals)
                full = homomesy_space_rank(PL, map_name, arrays, functionals)
                for report in (half, full):
                    assert report["pass"], (a, b, map_name, report)
                    assert report["nullspace_dim"] == expected_rank
                    assert report["functional_rank"] == expected_rank
                assert half["nullspace_dim"] == full["nullspace_dim"]


def test_criterion_8_tableau_bridge(capsys):
    title = "tableau dynamics match array dynamics through the pattern embedding"
    with criterion(capsys, 8, title):
        report = SUITES["bridge"](samples=100, seed=SEED)
        assert report["pass"], report
        assert len(report["checks"]) == 9
        assert all(c["inputs"] == 100 for c in report["checks"])

        t = Tableau([[1, 2, 2], [3, 5, 5]], 5)
        arr = tableau_to_array(t)
        assert tableau_to_array(tableau_promotion(t)) == promotion(PL, arr)
        for i in range(1, 5):
            assert tableau_to_array(bender_knuth(t, i)) == file_toggle(PL, arr, i)
        cur = t
        for _ in range(5):
            cur = tableau_promotion(cur)
        assert cur == t


def test_criterion_9_structural_suites(capsys):
    title = "structural invariants exhaustive for a+b<=7; seeded CLI reports byte-identical"
    with criterion(capsys, 9, title):
        for a, b in SHAPES_7:
            report = SUITES["vertex"](rectangle_poset(a, b), samples=20, seed=SEED)
            assert report["pass"], (a, b, report)

        argv = [
            sys.executable,
            "-m",
            "togglekit",
            "verify",
            "homomesy",
            "--shape",
            "2x3",
            "--samples",
            "10",
            "--seed",
            "7",
            "--json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()
