import re
from functools import reduce

import pytest

from helpers import bir_array, grid22, grid23, pl_array, rats
from togglekit import (
    BIRATIONAL,
    PL,
    PArray,
    birational_algebra,
    file_toggle,
    ideal_from_vertex,
    pl_algebra,
    promotion,
    promotion_inverse,
    rowmotion,
    rowmotion_inverse,
    toggle,
    vertex_from_ideal,
)
from togglekit.orbits import orbit
from togglekit.posets import (
    OrderIdeal,
    enumerate_ideals,
    promotion_ideal,
    rowmotion_ideal,
    toggle_ideal,
)
from togglekit.rational import Rat
from togglekit.sampling import (
    random_polytope_point,
    random_positive_array,
    seeded_rng,
)

# canonical [2]x[2] order: (1,1), (2,1), (1,2), (2,2)
PL_START = ("1/10", "2/10", "3/10", "4/10")
PL_ORBIT = (
    ("1/10", "1/5", "3/10", "2/5"),
    ("3/5", "4/5", "7/10", "9/10"),
    ("1/10", "7/10", "4/5", "9/10"),
    ("1/10", "3/10", "1/5", "9/10"),
)
PL_PROMOTED = ("1/5", "3/10", "4/5", "9/10")

BIR_ORBIT = (
    ("1", "2", "3", "4"),
    ("1/4", "5/8", "5/12", "5/4"),
    ("4/5", "1/3", "1/2", "5/6"),
    ("6/5", "12/5", "8/5", "1"),
)
BIR_PROMOTED = ("6/5", "2", "1/2", "5/4")
BIR_PROMOTION_ORBIT = (
    ("1", "2", "5/12", "5/4"),
    ("1/4", "5/8", "1/2", "5/6"),
    ("4/5", "1/3", "8/5", "1"),
    ("6/5", "12/5", "3", "4"),
)


def test_algebra_reflect():
    assert PL.reflect(Rat(3, 10)) == Rat(7, 10)
    assert BIRATIONAL.reflect(Rat(3, 10)) == Rat(10, 3)


def test_algebra_combine_difference():
    assert PL.combine(Rat(1, 2), Rat(1, 3)) == Rat(5, 6)
    assert PL.difference(Rat(1, 2), Rat(1, 3)) == Rat(1, 6)
    assert BIRATIONAL.combine(Rat(1, 2), Rat(1, 3)) == Rat(1, 6)
    assert BIRATIONAL.difference(Rat(1, 2), Rat(1, 3)) == Rat(3, 2)


def test_algebra_folds():
    assert reduce(PL.lower_aggregate, rats("1/2", "2/3", "1/3")) == Rat(2, 3)
    assert reduce(PL.upper_aggregate, rats("1/2", "2/3", "1/3")) == Rat(1, 3)
    assert reduce(BIRATIONAL.lower_aggregate, rats(1, 2)) == Rat(3)
    # parallel sum: 2*2/(2+2)
    assert reduce(BIRATIONAL.upper_aggregate, rats(2, 2)) == Rat(1)


def test_custom_boundaries():
    wide = pl_algebra(0, 2)
    assert wide.reflect(Rat(1, 2)) == Rat(3, 2)
    scaled = birational_algebra(2, 3)
    assert scaled.reflect(Rat(1, 2)) == Rat(12)


def test_array_validation():
    poset = grid22()
    with pytest.raises(ValueError):
        PL.array(poset, [0, 0, 0])  # wrong length
    with pytest.raises(ValueError):
        BIRATIONAL.array(poset, [1, 2, -3, 4])  # must stay positive
    f = PL.array(poset, ["1/10", "1/5", "3/10", "2/5"])
    assert f.at((2, 1)) == Rat(1, 5)
    assert f[3] == Rat(2, 5)
    assert len(f) == 4


def test_arrays_keep_rationals_and_coerce_the_rest():
    values = rats("1/3", "2/5", "3/7", "4/9")
    f = PArray(grid22(), values)
    assert all(v is w for v, w in zip(f.values, values))
    g = PArray(grid22(), [1, "2/5", Rat(3, 7), "-4/9"])
    assert g.values == (Rat(1), Rat(2, 5), Rat(3, 7), Rat(-4, 9))
    assert all(type(v) is Rat for v in g.values)


@pytest.mark.parametrize(
    "values, boundary, bad",
    [
        (["1", "0", "2", "3"], None, "0"),
        (["1", "2", "-1/3", "3"], None, "-1/3"),
        (["1", "2", "3", "4"], ("0", "1"), "0"),
        (["1", "2", "3", "4"], ("1", "-2"), "-2"),
    ],
)
def test_birational_arrays_refuse_what_is_not_positive(values, boundary, bad):
    message = f"birational arrays must be strictly positive, got {bad}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        alg = BIRATIONAL if boundary is None else birational_algebra(*boundary)
        alg.array(grid22(), values)


def test_the_boundary_belongs_to_the_algebra():
    poset = grid22()
    values = rats(1, 2, 3, 4)
    # A bare PArray walks with the boundary of the algebra that walks it.
    assert rowmotion(BIRATIONAL, PArray(poset, values)) == rowmotion(
        BIRATIONAL, BIRATIONAL.array(poset, values)
    )
    assert rowmotion(BIRATIONAL, PArray(poset, values)) == bir_array(poset, *BIR_ORBIT[1])
    assert not hasattr(PArray(poset, values), "boundary")
    with pytest.raises(TypeError):
        PArray(poset, values, (0, 1))
    with pytest.raises(TypeError):
        PL.array(poset, values, (0, 1))
    with pytest.raises(TypeError):
        vertex_from_ideal(OrderIdeal(poset, []), (0, 1))


def test_pl_rowmotion_matches_the_worked_example():
    f = pl_array(grid22(), *PL_START)
    assert rowmotion(PL, f) == pl_array(grid22(), *PL_ORBIT[1])


def test_pl_rowmotion_orbit_rows():
    poset = grid22()
    rec = orbit(lambda g: rowmotion(PL, g), pl_array(poset, *PL_START))
    assert rec.period == 4
    assert list(rec) == [pl_array(poset, *row) for row in PL_ORBIT]


def test_pl_promotion_matches_the_worked_example():
    f = pl_array(grid22(), *PL_START)
    assert promotion(PL, f) == pl_array(grid22(), *PL_PROMOTED)


def test_birational_rowmotion_orbit_rows():
    poset = grid22()
    rec = orbit(lambda g: rowmotion(BIRATIONAL, g), bir_array(poset, *BIR_ORBIT[0]))
    assert rec.period == 4
    assert list(rec) == [bir_array(poset, *row) for row in BIR_ORBIT]


def test_birational_promotion_matches_the_worked_example():
    f = bir_array(grid22(), 1, 2, 3, 4)
    assert promotion(BIRATIONAL, f) == bir_array(grid22(), *BIR_PROMOTED)


def test_birational_promotion_orbit_rows():
    poset = grid22()
    rec = orbit(
        lambda g: promotion(BIRATIONAL, g),
        bir_array(poset, *BIR_PROMOTION_ORBIT[0]),
    )
    assert rec.period == 4
    assert list(rec) == [bir_array(poset, *row) for row in BIR_PROMOTION_ORBIT]


def test_toggles_are_involutions():
    rng = seeded_rng(5)
    for poset in (grid22(), grid23()):
        f = PL.array(poset, random_polytope_point(poset, rng))
        g = random_positive_array(BIRATIONAL, poset, rng)
        for x in range(poset.size):
            assert toggle(PL, toggle(PL, f, x), x) == f
            assert toggle(BIRATIONAL, toggle(BIRATIONAL, g, x), x) == g


def test_inverse_maps_round_trip():
    rng = seeded_rng(6)
    for poset in (grid22(), grid23()):
        for alg, f in (
            (PL, PL.array(poset, random_polytope_point(poset, rng))),
            (BIRATIONAL, random_positive_array(BIRATIONAL, poset, rng)),
        ):
            assert rowmotion_inverse(alg, rowmotion(alg, f)) == f
            assert rowmotion(alg, rowmotion_inverse(alg, f)) == f
            assert promotion_inverse(alg, promotion(alg, f)) == f
            assert promotion(alg, promotion_inverse(alg, f)) == f


def test_file_toggle_hits_only_its_file():
    poset = grid23()
    rng = seeded_rng(7)
    f = random_positive_array(BIRATIONAL, poset, rng)
    g = file_toggle(BIRATIONAL, f, 2)
    changed = {x for x in range(poset.size) if f[x] != g[x]}
    assert changed <= set(poset.file_members(2))


def test_vertex_round_trip():
    poset = grid23()
    for ideal in enumerate_ideals(poset):
        v = vertex_from_ideal(ideal)
        assert set(v.values) <= {Rat(0), Rat(1)}
        assert ideal_from_vertex(v) == ideal


def test_vertex_rejects_non_indicators():
    poset = grid22()
    with pytest.raises(ValueError):
        ideal_from_vertex(pl_array(poset, "1/2", 0, 0, 1))
    with pytest.raises(ValueError):
        # ones not up-closed: 1 at bottom, 0 above it
        ideal_from_vertex(pl_array(poset, 1, 0, 0, 0))


def test_vertex_equivariance():
    poset = grid23()
    for ideal in enumerate_ideals(poset):
        v = vertex_from_ideal(ideal)
        assert vertex_from_ideal(rowmotion_ideal(ideal)) == rowmotion(PL, v)
        assert vertex_from_ideal(promotion_ideal(ideal)) == promotion(PL, v)
        for x in range(poset.size):
            assert vertex_from_ideal(toggle_ideal(ideal, x)) == toggle(PL, v, x)


def test_rowmotion_on_vertices_matches_the_ideal_example():
    poset = grid22()
    before = vertex_from_ideal(OrderIdeal(poset, [0, 1]))
    after = vertex_from_ideal(OrderIdeal(poset, [0, 2]))
    assert rowmotion(PL, before) == after
