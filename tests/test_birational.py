import pytest

from helpers import bir_array, grid22, grid23, pl_array
from togglekit import (
    BIRATIONAL,
    PL,
    birational_algebra,
    file_toggle,
    pl_algebra,
    promotion,
    quotient_sequence,
    recombine,
    recombine_inverse,
    reciprocity_check,
    rowmotion,
    rowmotion_iterates,
    three_step,
)
from togglekit.birational import file_toggle_swap_check, promotion_shift_check, shear_stages
from togglekit.dynamics import PArray, iterate
from togglekit.posets import Poset, PosetError, rectangle_poset, triangle_poset
from togglekit.rational import ONE, Rat
from togglekit.sampling import random_polytope_point, random_positive_array, seeded_rng

RECTANGLES = [grid22(), grid23(), rectangle_poset(3, 3)]


def _samples(poset, rng, count=8):
    pl = [PL.array(poset, random_polytope_point(poset, rng)) for _ in range(count)]
    bir = [random_positive_array(BIRATIONAL, poset, rng) for _ in range(count)]
    return ((PL, pl), (BIRATIONAL, bir))


def test_birational_three_step_equals_rowmotion():
    rng = seeded_rng(37)
    for poset in RECTANGLES:
        for f in (random_positive_array(BIRATIONAL, poset, rng) for _ in range(10)):
            assert three_step(BIRATIONAL, f) == rowmotion(BIRATIONAL, f)


def test_rowmotion_iterates_prefix():
    poset = grid22()
    f = bir_array(poset, 1, 2, 3, 4)
    its = rowmotion_iterates(BIRATIONAL, f, 2)
    assert its[0] == f
    assert its[1] == rowmotion(BIRATIONAL, f)
    assert its[2] == rowmotion(BIRATIONAL, its[1])


def test_inverse_shear_lands_on_the_promotion_orbit_head():
    poset = grid22()
    f = bir_array(poset, 1, 2, 3, 4)
    assert recombine_inverse(BIRATIONAL, f) == bir_array(poset, 1, 2, "5/12", "5/4")


def test_inverse_shear_carries_orbit_rows_onto_orbit_rows():
    poset = grid22()
    rows = rowmotion_iterates(BIRATIONAL, bir_array(poset, 1, 2, 3, 4), 3)
    image = recombine_inverse(BIRATIONAL, rows[0])
    for row in rows:
        assert recombine_inverse(BIRATIONAL, row) == image
        image = promotion(BIRATIONAL, image)


def test_recombination_conjugates_promotion_to_rowmotion():
    rng = seeded_rng(41)
    for poset in RECTANGLES:
        for alg, arrays in _samples(poset, rng):
            for f in arrays:
                assert recombine(alg, promotion(alg, f)) == rowmotion(
                    alg, recombine(alg, f)
                )


def test_inverse_shear_conjugates_rowmotion_to_promotion():
    rng = seeded_rng(43)
    for poset in RECTANGLES:
        for alg, arrays in _samples(poset, rng):
            for f in arrays:
                assert recombine_inverse(alg, rowmotion(alg, f)) == promotion(
                    alg, recombine_inverse(alg, f)
                )


def test_shears_are_mutually_inverse():
    rng = seeded_rng(47)
    for poset in RECTANGLES:
        for alg, arrays in _samples(poset, rng):
            for f in arrays:
                assert recombine(alg, recombine_inverse(alg, f)) == f
                assert recombine_inverse(alg, recombine(alg, f)) == f


def test_recombination_round_trips_off_rectangles():
    poset = triangle_poset(3)
    rng = seeded_rng(53)
    for alg, arrays in _samples(poset, rng):
        for f in arrays:
            assert recombine_inverse(alg, recombine(alg, f)) == f
            assert recombine(alg, recombine_inverse(alg, f)) == f


def test_shears_ignore_where_the_rc_embedding_sits():
    # rectangle_poset puts its bottom-left diagonal at 0, where d - base and
    # d + base agree; the depths must count from wherever it sits.
    poset = rectangle_poset(3, 4)
    moved = Poset(
        poset.size, poset.covers, labels=poset.labels, rc=[(c + 1, r + 1) for c, r in poset.rc]
    )
    assert shear_stages(moved) == shear_stages(poset)
    rng = seeded_rng(59)
    for alg, arrays in _samples(poset, rng, count=4):
        for f in arrays:
            g = PArray(moved, f.values)
            assert recombine(alg, g).values == recombine(alg, f).values
            assert recombine_inverse(alg, g).values == recombine_inverse(alg, f).values


def test_reciprocity_birational():
    rng = seeded_rng(59)
    for poset in RECTANGLES:
        for _ in range(10):
            f = random_positive_array(BIRATIONAL, poset, rng)
            ok, violations = reciprocity_check(BIRATIONAL, f)
            assert ok, violations


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
@pytest.mark.parametrize(
    "make, ends",
    [(make, ends) for make in (birational_algebra, pl_algebra) for ends in ((2, 3), ("1/2", 7))],
    ids=["birational-2-3", "birational-1/2-7", "pl-2-3", "pl-1/2-7"],
)
def test_rectangle_identities_hold_at_other_boundaries(make, ends, shape):
    # Order a + b, antipodal reciprocity and recombination hold for any
    # boundary constants (Grinberg and Roby).
    alg, poset, order = make(*ends), rectangle_poset(*shape), sum(shape)
    rng = seeded_rng(71)
    for _ in range(5):
        f = random_positive_array(alg, poset, rng)
        for sweep in (poset.rowmotion_order, poset.promotion_order):
            assert iterate(alg, f, sweep, [order] * poset.size) == f
        assert reciprocity_check(alg, f) == (True, [])
        assert recombine(alg, promotion(alg, f)) == rowmotion(alg, recombine(alg, f))


def test_reciprocity_entry_by_hand():
    # iterate a+b+1-i-j = 2 at (i,j) = (2,1): entry (1,2) of the 2nd iterate is 1/f(2,1)
    poset = grid22()
    f = bir_array(poset, 1, 2, 3, 4)
    second = rowmotion_iterates(BIRATIONAL, f, 2)[2]
    assert second.at((1, 2)) == ONE / f.at((2, 1))


def test_reciprocity_pl_uses_one_minus():
    rng = seeded_rng(61)
    for poset in RECTANGLES:
        for _ in range(10):
            f = PL.array(poset, random_polytope_point(poset, rng))
            ok, violations = reciprocity_check(PL, f)
            assert ok, violations
    f = pl_array(grid22(), "1/10", "2/10", "3/10", "4/10")
    second = rowmotion_iterates(PL, f, 2)[2]
    assert second.at((1, 2)) == ONE - f.at((2, 1))


def test_reciprocity_needs_a_rectangle():
    f = random_positive_array(BIRATIONAL, triangle_poset(3), seeded_rng(67))
    with pytest.raises(PosetError, match="rectangle"):
        reciprocity_check(BIRATIONAL, f)


def test_reciprocity_report_shape():
    poset = grid22()
    f = bir_array(poset, 1, 2, 3, 4)
    ok, violations = reciprocity_check(BIRATIONAL, rowmotion(BIRATIONAL, f))
    assert ok
    assert violations == []


def test_quotient_sequence_of_the_worked_start():
    f = bir_array(grid22(), 1, 2, 3, 4)
    assert quotient_sequence(BIRATIONAL, f) == (Rat(2), Rat(2), Rat(3, 4), Rat(1, 3))


def test_promotion_cycles_the_quotient_sequence():
    f = bir_array(grid22(), 1, 2, 3, 4)
    shifted = quotient_sequence(BIRATIONAL, promotion(BIRATIONAL, f))
    assert shifted == (Rat(2), Rat(3, 4), Rat(1, 3), Rat(2))
    assert promotion_shift_check(BIRATIONAL, f)


def test_quotient_product_is_one():
    rng = seeded_rng(67)
    for poset in RECTANGLES:
        for _ in range(10):
            f = random_positive_array(BIRATIONAL, poset, rng)
            product = ONE
            for q in quotient_sequence(BIRATIONAL, f):
                product *= q
            assert product == ONE


def test_file_toggle_swaps_adjacent_quotients():
    rng = seeded_rng(71)
    for poset in RECTANGLES:
        a, b = poset.rectangle_shape
        for _ in range(5):
            f = random_positive_array(BIRATIONAL, poset, rng)
            for k in range(1, a + b):
                assert file_toggle_swap_check(BIRATIONAL, f, k)


def test_quotient_swap_by_hand():
    f = bir_array(grid22(), 1, 2, 3, 4)
    before = quotient_sequence(BIRATIONAL, f)
    after = quotient_sequence(BIRATIONAL, file_toggle(BIRATIONAL, f, 2))
    assert after == (before[0], before[2], before[1], before[3])


def test_quotient_sum_telescopes_to_zero_pl():
    rng = seeded_rng(73)
    poset = grid23()
    for _ in range(5):
        f = PL.array(poset, random_polytope_point(poset, rng))
        assert sum(quotient_sequence(PL, f), Rat(0)) == Rat(0)


def test_quotient_identities_tropicalize_at_the_neutral_boundary():
    # the swap and shift identities need the neutral boundary: (1,1)
    # birationally, hence (0,0) in the max-plus shadow
    from togglekit import pl_algebra

    alg = pl_algebra(0, 0)
    rng = seeded_rng(73)
    poset = grid23()
    for _ in range(5):
        f = alg.array(poset, random_polytope_point(poset, rng))
        assert promotion_shift_check(alg, f)
        for k in range(1, 5):
            assert file_toggle_swap_check(alg, f, k)
