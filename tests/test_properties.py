"""Property-based checks over randomized posets, arrays, and tableaux."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from togglekit import (
    BIRATIONAL,
    PL,
    parse_rat,
    promotion,
    recombine,
    recombine_inverse,
    rowmotion,
    three_step,
    toggle,
    transfer,
    transfer_inverse,
)
from togglekit.homomesy import average_space_rank, orbit_average_vector, standard_functionals
from togglekit.posets import (
    enumerate_ideals,
    rectangle_poset,
    toggle_ideal,
    triangle_poset,
)
from togglekit.rational import Rat
from togglekit.sampling import random_polytope_point, random_tableau, seeded_rng
from togglekit.tableaux import bender_knuth, tableau_promotion

SHAPES = st.tuples(st.integers(1, 3), st.integers(1, 3))

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12
).map(Rat)

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(9), max_denominator=12
).map(Rat)


@st.composite
def pl_arrays(draw):
    a, b = draw(SHAPES)
    poset = rectangle_poset(a, b)
    values = draw(
        st.lists(rationals, min_size=poset.size, max_size=poset.size)
    )
    return PL.array(poset, values)


@st.composite
def birational_arrays(draw):
    a, b = draw(SHAPES)
    poset = rectangle_poset(a, b)
    values = draw(
        st.lists(positive_rationals, min_size=poset.size, max_size=poset.size)
    )
    return BIRATIONAL.array(poset, values)


@st.composite
def polytope_points(draw):
    a, b = draw(SHAPES)
    poset = rectangle_poset(a, b)
    seed = draw(st.integers(0, 10**6))
    return PL.array(poset, random_polytope_point(poset, seeded_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(pl_arrays(), st.data())
def test_pl_toggles_are_involutions(f, data):
    x = data.draw(st.integers(0, f.poset.size - 1))
    assert toggle(PL, toggle(PL, f, x), x) == f


@settings(max_examples=60, deadline=None)
@given(birational_arrays(), st.data())
def test_birational_toggles_are_involutions(f, data):
    x = data.draw(st.integers(0, f.poset.size - 1))
    assert toggle(BIRATIONAL, toggle(BIRATIONAL, f, x), x) == f


@settings(max_examples=40, deadline=None)
@given(pl_arrays(), st.data())
def test_incomparable_toggles_commute(f, data):
    poset = f.poset
    x = data.draw(st.integers(0, poset.size - 1))
    y = data.draw(st.integers(0, poset.size - 1))
    if poset.leq(x, y) or poset.leq(y, x):
        return
    assert toggle(PL, toggle(PL, f, x), y) == toggle(PL, toggle(PL, f, y), x)


@settings(max_examples=50, deadline=None)
@given(pl_arrays())
def test_three_step_equals_rowmotion_everywhere(f):
    assert three_step(PL, f) == rowmotion(PL, f)


@settings(max_examples=50, deadline=None)
@given(birational_arrays())
def test_birational_three_step_equals_rowmotion(f):
    assert three_step(BIRATIONAL, f) == rowmotion(BIRATIONAL, f)


@settings(max_examples=50, deadline=None)
@given(birational_arrays())
def test_rowmotion_order_divides_rank_sum(f):
    a, b = f.poset.rectangle_shape
    cur = f
    for _ in range(a + b):
        cur = rowmotion(BIRATIONAL, cur)
    assert cur == f


@settings(max_examples=50, deadline=None)
@given(pl_arrays())
def test_promotion_order_divides_rank_sum_pl(f):
    a, b = f.poset.rectangle_shape
    cur = f
    for _ in range(a + b):
        cur = promotion(PL, cur)
    assert cur == f


@settings(max_examples=40, deadline=None)
@given(birational_arrays())
def test_recombination_conjugation(f):
    assert recombine(BIRATIONAL, promotion(BIRATIONAL, f)) == rowmotion(
        BIRATIONAL, recombine(BIRATIONAL, f)
    )
    assert recombine_inverse(BIRATIONAL, recombine(BIRATIONAL, f)) == f


@settings(max_examples=40, deadline=None)
@given(pl_arrays())
def test_recombination_conjugation_pl(f):
    assert recombine(PL, promotion(PL, f)) == rowmotion(PL, recombine(PL, f))
    assert recombine(PL, recombine_inverse(PL, f)) == f


@settings(max_examples=50, deadline=None)
@given(polytope_points())
def test_transfer_round_trip(f):
    assert transfer_inverse(transfer(f)) == f


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_combinatorial_toggle_involution_on_triangles(n, seed):
    poset = triangle_poset(n)
    rng = seeded_rng(seed)
    ideals = enumerate_ideals(poset)
    ideal = ideals[rng.randrange(len(ideals))]
    x = rng.randrange(poset.size)
    assert toggle_ideal(toggle_ideal(ideal, x), x) == ideal


@settings(max_examples=60, deadline=None)
@given(rationals)
def test_rational_text_round_trip(q):
    assert parse_rat(str(q)) == q


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3, 5), (2, 2, 4), (1, 3, 4)]),
    st.integers(0, 10**6),
    st.data(),
)
def test_bender_knuth_is_an_involution(shape, seed, data):
    rows, cols, n = shape
    t = random_tableau(rows, cols, n, seeded_rng(seed))
    i = data.draw(st.integers(1, n - 1))
    assert bender_knuth(bender_knuth(t, i), i) == t


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(2, 3, 5), (2, 2, 4), (1, 3, 4)]), st.integers(0, 10**6))
def test_tableau_promotion_order(shape, seed):
    rows, cols, n = shape
    t = random_tableau(rows, cols, n, seeded_rng(seed))
    cur = t
    for _ in range(n):
        cur = tableau_promotion(cur)
    assert cur == t


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 3), (2, 4)]),
    st.sampled_from(["rowmotion", "promotion"]),
    st.integers(1, 20),
    st.integers(0, 10**6),
    st.data(),
)
def test_sampled_nullspace_bounds_the_functional_rank_and_never_rises(
    shape, map_name, denominator, seed, data
):
    # span F <= H <= N: the standard functionals are homomesic, so the
    # sampled nullspace N is at least their rank, and a start appended to
    # the sample can only shrink N.  The rank audit's stopping rule rests on it.
    a, b = shape
    poset = rectangle_poset(a, b)
    functionals = standard_functionals(a, b)
    rng = seeded_rng(seed)
    count = data.draw(st.integers(2, 3 * poset.size))
    starts = [random_polytope_point(poset, rng, denominator) for _ in range(count)]
    averages = [orbit_average_vector(PL, map_name, PL.array(poset, f)) for f in starts]
    ranks = [
        average_space_rank(PL, map_name, averages[:k], functionals) for k in range(2, count + 1)
    ]
    dims = [r["nullspace_dim"] for r in ranks]
    assert min(dims) >= ranks[0]["functional_rank"]
    assert dims == sorted(dims, reverse=True)
