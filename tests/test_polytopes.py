import pytest

from helpers import grid22, grid23, pl_array
from togglekit import (
    BIRATIONAL,
    PL,
    birational_algebra,
    in_chain_polytope,
    in_order_polytope,
    pl_algebra,
    rowmotion,
    three_step,
    transfer,
    transfer_inverse,
)
from togglekit.polytopes import complement_map, cumulate_map, transfer_map
from togglekit.posets import Poset, rectangle_poset, triangle_poset
from togglekit.rational import ONE, ZERO, Rat
from togglekit.sampling import random_polytope_point, random_positive_array, seeded_rng

FENCE = Poset(5, [(0, 2), (1, 2), (1, 3), (2, 4), (3, 4)])


def test_order_polytope_membership():
    poset = grid22()
    assert in_order_polytope(pl_array(poset, "1/10", "1/5", "3/10", "2/5"))
    assert not in_order_polytope(pl_array(poset, "1/5", "1/10", "3/10", "2/5"))
    assert not in_order_polytope(pl_array(poset, 0, 0, 0, 2))
    assert not in_order_polytope(pl_array(poset, "-1/10", 0, 0, 0))


def test_chain_polytope_membership():
    poset = grid22()
    assert in_chain_polytope(pl_array(poset, "1/10", "1/10", "1/5", "1/10"))
    assert not in_chain_polytope(pl_array(poset, "1/2", "1/2", "1/2", "1/2"))
    assert not in_chain_polytope(pl_array(poset, "-1/10", 0, 0, 0))


def test_transfer_matches_the_worked_example():
    poset = grid22()
    f = pl_array(poset, "1/10", "2/10", "3/10", "4/10")
    assert transfer(f) == pl_array(poset, "1/10", "1/10", "1/5", "1/10")


def test_cumulate_matches_the_worked_example():
    poset = grid22()
    g = pl_array(poset, "1/10", "1/10", "1/5", "1/10")
    assert cumulate_map(PL, g) == pl_array(poset, "2/5", "1/5", "3/10", "1/10")


def test_transfer_rejects_outside_points():
    poset = grid22()
    with pytest.raises(ValueError):
        transfer(pl_array(poset, "1/5", "1/10", "3/10", "2/5"))
    with pytest.raises(ValueError):
        transfer_inverse(pl_array(poset, "1/2", "1/2", "1/2", "1/2"))


def _chain_sum_oracle(g):
    'Maximum sum of g over any chain ending at each element, chains listed explicitly.'
    poset = g.poset

    def chains_to(x):
        tails = [(x,)]
        for y in poset.lower_covers[x]:
            tails += [chain + (x,) for chain in chains_to(y)]
        return tails

    values = []
    for x in range(poset.size):
        values.append(max(sum((g[c] for c in chain), ZERO) for chain in chains_to(x)))
    return g._replace(values)


def _in_chain_polytope_oracle(f):
    'Nonnegative, and at most 1 on every maximal chain, chains listed explicitly.'
    poset = f.poset

    def chains_from(x):
        ups = poset.upper_covers[x]
        return [(x,) + chain for y in ups for chain in chains_from(y)] if ups else [(x,)]

    chains = [chain for x in poset.minimal_elements for chain in chains_from(x)]
    return all(v >= ZERO for v in f.values) and all(
        sum((f[x] for x in chain), ZERO) <= ONE for chain in chains
    )


POLYTOPE_POSETS = {
    "2x2": grid22(),
    "2x3": grid23(),
    "3x3": rectangle_poset(3, 3),
    "triangle-3": triangle_poset(3),
    "triangle-4": triangle_poset(4),
    "fence": FENCE,
}


@pytest.mark.parametrize("poset", POLYTOPE_POSETS.values(), ids=POLYTOPE_POSETS.keys())
def test_chain_polytope_membership_agrees_with_chain_enumeration(poset):
    rng = seeded_rng(11)
    # A longest chain sums to 1 on average: points on both sides of the
    # chain facets, and often on one; a few carry a negative entry.
    den = 2 * (max(poset.ranks) + 1)
    for _ in range(200):
        values = [Rat(rng.randint(0, 4), den) for _ in range(poset.size)]
        if rng.random() < 0.1:
            values[rng.randrange(poset.size)] = Rat(-1, den)
        f = PL.array(poset, values)
        assert in_chain_polytope(f) == _in_chain_polytope_oracle(f)
    for _ in range(10):
        g = transfer(PL.array(poset, random_polytope_point(poset, rng)))
        assert in_chain_polytope(g) and _in_chain_polytope_oracle(g)


def test_chain_polytope_of_a_large_grid():
    poset = rectangle_poset(15, 15)
    g = PL.array(poset, [Rat(1, 29)] * poset.size)
    assert in_chain_polytope(g)
    assert transfer_inverse(g)[poset.size - 1] == ONE
    assert not in_chain_polytope(g._replace([Rat(1, 28)] * poset.size))


@pytest.mark.parametrize(
    "poset", [grid22(), grid23(), rectangle_poset(3, 3), triangle_poset(3), FENCE]
)
def test_transfer_inverse_agrees_with_chain_enumeration(poset):
    rng = seeded_rng(13)
    for _ in range(10):
        f = PL.array(poset, random_polytope_point(poset, rng))
        g = transfer(f)
        assert transfer_inverse(g) == _chain_sum_oracle(g)


def test_transfer_round_trips():
    rng = seeded_rng(17)
    for poset in (grid22(), grid23(), triangle_poset(3), FENCE):
        for _ in range(10):
            f = PL.array(poset, random_polytope_point(poset, rng))
            g = transfer(f)
            assert in_chain_polytope(g)
            assert transfer_inverse(g) == f


def test_transfer_is_onto_the_chain_polytope():
    poset = grid22()
    g = pl_array(poset, "1/10", "1/5", "1/5", "1/4")
    assert in_chain_polytope(g)
    assert transfer(transfer_inverse(g)) == g


def test_three_step_equals_rowmotion_pl():
    rng = seeded_rng(19)
    for poset in (grid22(), grid23(), triangle_poset(3), triangle_poset(4), FENCE):
        for _ in range(10):
            f = PL.array(poset, random_polytope_point(poset, rng))
            assert three_step(PL, f) == rowmotion(PL, f)


def test_three_step_equals_rowmotion_on_general_arrays():
    rng = seeded_rng(23)
    poset = grid23()
    for _ in range(10):
        f = PL.array(poset, [Rat(rng.randint(-40, 40), 7) for _ in range(poset.size)])
        assert three_step(PL, f) == rowmotion(PL, f)


def test_three_step_equals_rowmotion_birational():
    rng = seeded_rng(29)
    for poset in (grid22(), grid23(), rectangle_poset(3, 3), triangle_poset(3)):
        for _ in range(10):
            f = random_positive_array(BIRATIONAL, poset, rng)
            assert three_step(BIRATIONAL, f) == rowmotion(BIRATIONAL, f)


def test_three_step_factor_composition_matches_the_orbit_step():
    poset = grid22()
    f = pl_array(poset, "1/10", "2/10", "3/10", "4/10")
    staged = complement_map(PL, cumulate_map(PL, transfer_map(PL, f)))
    assert staged == pl_array(poset, "3/5", "4/5", "7/10", "9/10")


@pytest.mark.parametrize(
    "alg",
    [make(*ends) for make in (pl_algebra, birational_algebra) for ends in ((2, 3), ("1/2", 7))],
    ids=["pl-2-3", "pl-1/2-7", "birational-2-3", "birational-1/2-7"],
)
def test_three_step_equals_rowmotion_at_other_boundaries(alg):
    # Every factor reads the algebra's boundary, as rowmotion does.
    rng = seeded_rng(37)
    for poset in (grid23(), triangle_poset(3), FENCE):
        for _ in range(5):
            f = random_positive_array(alg, poset, rng)
            assert three_step(alg, f) == rowmotion(alg, f)
