from fractions import Fraction

import pytest

from togglekit.polytopes import in_order_polytope
from togglekit.posets import rectangle_poset, triangle_poset
from togglekit import BIRATIONAL, PL
from togglekit.sampling import (
    random_ideal,
    random_linear_extension,
    random_polytope_point,
    random_positive_array,
    random_rational,
    random_tableau,
    seeded_rng,
)
from togglekit.rational import Rat
from togglekit.serialize import poset_from_json
from togglekit.tableaux import Tableau


def test_identical_seeds_reproduce_streams():
    poset = rectangle_poset(3, 3)
    a, b = seeded_rng(11), seeded_rng(11)
    for _ in range(20):
        assert random_rational(a) == random_rational(b)
    assert random_polytope_point(poset, a) == random_polytope_point(poset, b)
    assert random_positive_array(BIRATIONAL, poset, a) == random_positive_array(
        BIRATIONAL, poset, b
    )
    assert random_tableau(2, 3, 5, a) == random_tableau(2, 3, 5, b)


def test_different_seeds_differ():
    poset = rectangle_poset(3, 3)
    points = {tuple(random_polytope_point(poset, seeded_rng(s))) for s in range(8)}
    assert len(points) > 1


def test_random_rational_is_positive_and_bounded():
    rng = seeded_rng(13)
    for _ in range(100):
        q = random_rational(rng, 1, 9)
        assert 0 < q <= 9


def test_polytope_points_are_in_the_polytope():
    rng = seeded_rng(17)
    for poset in (rectangle_poset(2, 3), rectangle_poset(3, 3), triangle_poset(4)):
        for _ in range(25):
            f = PL.array(poset, random_polytope_point(poset, rng))
            assert in_order_polytope(f)


def test_random_positive_arrays_are_positive():
    rng = seeded_rng(19)
    poset = rectangle_poset(2, 3)
    for _ in range(25):
        f = random_positive_array(BIRATIONAL, poset, rng)
        assert all(v > 0 for v in f.values)


def test_random_ideals_are_ideals():
    rng = seeded_rng(23)
    poset = rectangle_poset(3, 3)
    for _ in range(25):
        ideal = random_ideal(poset, rng)
        assert poset.is_ideal_mask(ideal.mask)


def test_random_linear_extensions_are_extensions():
    rng = seeded_rng(29)
    for poset in (rectangle_poset(2, 3), triangle_poset(3)):
        for _ in range(10):
            ext = random_linear_extension(poset, rng)
            assert sorted(ext) == list(range(poset.size))
            position = {x: k for k, x in enumerate(ext)}
            assert all(position[lo] < position[hi] for lo, hi in poset.covers)


def test_random_tableaux_are_semistandard():
    rng = seeded_rng(31)
    for rows, cols, n in ((2, 3, 5), (2, 2, 4), (1, 3, 4), (3, 4, 7)):
        for _ in range(25):
            t = random_tableau(rows, cols, n, rng)
            assert isinstance(t, Tableau)  # constructor enforces semistandardness
            assert t.shape == (cols,) * rows
            assert t.max_entry == n


def test_random_tableaux_explore_the_space():
    rng = seeded_rng(37)
    seen = {random_tableau(2, 2, 4, rng) for _ in range(60)}
    assert len(seen) > 5


def fraction_push(poset, rng, denominator=20):
    'random_polytope_point as it was: Fractions drawn, then pushed up along covers.'
    values = [Fraction(rng.randint(0, denominator), denominator) for _ in range(poset.size)]
    for x in range(poset.size):
        for lo in poset.lower_covers[x]:
            if values[lo] > values[x]:
                values[x] = values[lo]
    return values


JSON_POSET = {"size": 5, "labels": ["a", "b", "c", "d", "e"],
              "covers": [[0, 2], [1, 2], [1, 3], [2, 4], [3, 4]]}


@pytest.mark.parametrize(
    "poset",
    [rectangle_poset(3, 4), triangle_poset(4), poset_from_json(JSON_POSET)],
    ids=["rectangle", "triangle", "json"],
)
@pytest.mark.parametrize("denominator", [20, 7])
def test_polytope_points_equal_the_fraction_push(poset, denominator):
    for seed in range(200):
        rng, old = seeded_rng(seed), seeded_rng(seed)
        point = random_polytope_point(poset, rng, denominator)
        assert point == fraction_push(poset, old, denominator)
        assert all(type(v) is Rat for v in point)
        assert rng.random() == old.random()  # the same draws from the stream
