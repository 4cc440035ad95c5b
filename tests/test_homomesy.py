import pytest

from helpers import bir_array, grid22, grid23, pl_array
from togglekit import (
    BIRATIONAL,
    PL,
    Functional,
    PArray,
    exact_rank,
    homomesy_check,
    homomesy_space_rank,
    orbit_statistic,
    orbit_statistics,
    standard_functionals,
    vertex_from_ideal,
)
from togglekit import homomesy
from togglekit.homomesy import (
    average_space_rank,
    file_functional,
    orbit_average_vector,
    pair_functional,
    step_map,
)
from togglekit.orbits import orbit
from togglekit.posets import enumerate_ideals, promotion_ideal, rectangle_poset, rowmotion_ideal
from togglekit.rational import ONE, Rat
from togglekit.sampling import random_polytope_point, random_positive_array, seeded_rng
from togglekit.verify import suite_homomesy


def test_pair_functional_coefficients():
    fn = pair_functional(2, 2, 1, 1)
    assert fn.coefficients == (Rat(1), Rat(0), Rat(0), Rat(1))
    fn = pair_functional(2, 2, 2, 1)
    assert fn.coefficients == (Rat(0), Rat(1), Rat(1), Rat(0))


def test_center_cell_gets_weight_two():
    fn = pair_functional(3, 3, 2, 2)
    center = rectangle_poset(3, 3).index_of((2, 2))
    assert fn.coefficients[center] == Rat(2)


def test_file_functional_coefficients():
    fn = file_functional(2, 2, 2)
    assert fn.coefficients == (Rat(1), Rat(0), Rat(0), Rat(1))
    assert file_functional(2, 2, 1).coefficients == (Rat(0), Rat(1), Rat(0), Rat(0))


def test_standard_functional_counts():
    # one pair functional per cell, one file functional per file
    assert len(standard_functionals(2, 2)) == 4 + 3
    assert len(standard_functionals(2, 3)) == 6 + 4
    assert len(standard_functionals(3, 3)) == 9 + 5


def test_functional_values():
    poset = grid22()
    f = pl_array(poset, "1/10", "2/10", "3/10", "4/10")
    fn = pair_functional(2, 2, 1, 1)
    assert fn.linear_value(f) == Rat(1, 2)
    g = bir_array(poset, 1, 2, 3, 4)
    assert fn.monomial_value(g) == Rat(4)


def test_monomial_value_squares_the_center():
    poset = rectangle_poset(3, 3)
    g = BIRATIONAL.array(poset, [2] * poset.size)
    fn = pair_functional(3, 3, 2, 2)
    assert fn.monomial_value(g) == Rat(4)


def test_orbit_statistic_pl_means_on_the_square():
    poset = grid22()
    f = pl_array(poset, "1/10", "2/10", "3/10", "4/10")
    fns = {fn.name: fn for fn in standard_functionals(2, 2)}
    value, period = orbit_statistic(PL, "rowmotion", fns["file(2)"], f)
    assert (value, period) == (ONE, 4)
    assert orbit_statistic(PL, "rowmotion", fns["file(1)"], f)[0] == Rat(1, 2)
    assert orbit_statistic(PL, "rowmotion", fns["file(3)"], f)[0] == Rat(1, 2)
    for name in ("pair(1,1)", "pair(2,1)"):
        assert orbit_statistic(PL, "rowmotion", fns[name], f)[0] == ONE


def test_orbit_products_are_one_for_the_worked_start():
    poset = grid22()
    g = bir_array(poset, 1, 2, 3, 4)
    for fn in standard_functionals(2, 2):
        for map_name in ("rowmotion", "promotion"):
            assert orbit_statistic(BIRATIONAL, map_name, fn, g)[0] == ONE


def test_middle_file_products_per_row():
    # per-row products of the middle file over the rowmotion orbit of (1,2,3,4)
    poset = grid22()
    g = bir_array(poset, 1, 2, 3, 4)
    fn = file_functional(2, 2, 2)
    step = step_map(BIRATIONAL, "rowmotion")
    rows = []
    for _ in range(4):
        rows.append(fn.monomial_value(g))
        g = step(g)
    assert rows == [Rat(4), Rat(5, 16), Rat(2, 3), Rat(6, 5)]
    product = ONE
    for row in rows:
        product *= row
    assert product == ONE


def test_leftmost_file_products_per_row():
    poset = grid22()
    g = bir_array(poset, 1, 2, 3, 4)
    fn = file_functional(2, 2, 1)
    step = step_map(BIRATIONAL, "rowmotion")
    rows = []
    for _ in range(4):
        rows.append(fn.monomial_value(g))
        g = step(g)
    assert rows == [Rat(2), Rat(5, 8), Rat(1, 3), Rat(12, 5)]


def test_file_means_per_row_pl():
    poset = grid22()
    f = pl_array(poset, "1/10", "2/10", "3/10", "4/10")
    fn = file_functional(2, 2, 2)
    step = step_map(PL, "rowmotion")
    rows = []
    for _ in range(4):
        rows.append(fn.linear_value(f))
        f = step(f)
    assert rows == [Rat(1, 2), Rat(3, 2), Rat(1), Rat(1)]


def test_homomesy_check_constancy():
    poset = grid23()
    rng = seeded_rng(79)
    starts = [
        PL.array(poset, random_polytope_point(poset, rng)) for _ in range(12)
    ]
    for fn in standard_functionals(2, 3):
        report = homomesy_check(PL, "rowmotion", fn, starts)
        assert report["pass"], report
    g_starts = [random_positive_array(BIRATIONAL, poset, rng) for _ in range(12)]
    for fn in standard_functionals(2, 3):
        report = homomesy_check(BIRATIONAL, "promotion", fn, g_starts)
        assert report["pass"], report
        assert report["constant"] == "1"


def test_homomesy_check_counts_an_iterator_of_starts():
    poset = grid23()
    rng = seeded_rng(79)
    starts = [PL.array(poset, random_polytope_point(poset, rng)) for _ in range(12)]
    fn = file_functional(2, 3, 2)
    from_list = homomesy_check(PL, "rowmotion", fn, starts)
    from_iterator = homomesy_check(PL, "rowmotion", fn, iter(starts))
    assert from_iterator == from_list
    assert from_iterator["samples"] == 12


@pytest.mark.parametrize("alg", [PL, BIRATIONAL], ids=["pl", "birational"])
@pytest.mark.parametrize("map_name", ["rowmotion", "promotion"])
def test_statistics_from_orbit_aggregates_match_per_state_evaluation(alg, map_name):
    # Arbitrary integer coefficients, zeros and negative exponents included.
    poset = grid23()
    rng = seeded_rng(5)
    fns = [
        Functional(f"random{k}", [rng.randint(-2, 2) for _ in range(poset.size)])
        for k in range(6)
    ]
    for _ in range(4):
        if alg is PL:
            f = PL.array(poset, random_polytope_point(poset, rng))
        else:
            f = random_positive_array(BIRATIONAL, poset, rng)
        states = orbit(step_map(alg, map_name), f)
        table = orbit_statistics(alg, map_name, fns, f)
        for fn in fns:
            if alg is PL:
                want = sum(fn.linear_value(s) for s in states) / len(states)
            else:
                want = ONE
                for s in states:
                    want *= fn.monomial_value(s)
            assert table[fn.name] == want
            assert orbit_statistic(alg, map_name, fn, f) == (want, len(states))
        means = [sum(column) / len(states) for column in zip(*(s.values for s in states))]
        assert orbit_average_vector(alg, map_name, f) == means


def test_homomesy_suite_walks_every_orbit_through_orbit(monkeypatch):
    # [3]x[3]: a+b = 6 is composite, so the vertex orbits have periods 6
    # and 2, and a mean that is not divided by its period breaks homomesy.
    poset = rectangle_poset(3, 3)
    calls = []
    walk = homomesy.orbit

    def counted(step, start, cap=1000):
        rec = walk(step, start, cap=cap)
        calls.append((type(start), rec.period))
        return rec

    monkeypatch.setattr(homomesy, "orbit", counted)
    report = suite_homomesy(poset, samples=3, seed=1)
    assert report["pass"], report
    ideals = enumerate_ideals(poset)
    audited = sum(c["inputs"] for c in report["checks"] if "dimension" in c["check"])
    # Both maps from each array of both regimes, each vertex and each audit draw.
    arrays = 2 * 2 * 3
    assert len(calls) == arrays + 2 * len(ideals) + audited
    # Every start the lanes take is walked in lane states, not as a PArray.
    assert {kind for kind, _ in calls} == {tuple}
    vertex_periods = [period for _, period in calls[arrays : arrays + 2 * len(ideals)]]
    steps = (rowmotion_ideal, promotion_ideal)
    assert vertex_periods == [orbit(step, i).period for i in ideals for step in steps]
    assert set(vertex_periods) == {2, 6}
    calls.clear()
    # A birational start that is not positive is declined: the step_map walk.
    start = PArray(poset, [Rat(-(k + 1), 7) for k in range(poset.size)])
    assert orbit_statistic(BIRATIONAL, "rowmotion", file_functional(3, 3, 1), start)[1] == 6
    assert calls == [(PArray, 6)]


def test_orbit_statistics_match_single_calls():
    poset = grid22()
    g = bir_array(poset, 1, 2, 3, 4)
    fns = standard_functionals(2, 2)
    table = orbit_statistics(BIRATIONAL, "rowmotion", fns, g)
    for fn in fns:
        assert table[fn.name] == orbit_statistic(BIRATIONAL, "rowmotion", fn, g)[0]


def test_vertex_restriction_reproduces_ideal_homomesy():
    poset = grid22()
    vertices = [vertex_from_ideal(i) for i in enumerate_ideals(poset)]
    fn = file_functional(2, 2, 2)
    values = {orbit_statistic(PL, "rowmotion", fn, v)[0] for v in vertices}
    assert len(values) == 1


def test_exact_rank_small_matrices():
    assert exact_rank([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 1
    assert exact_rank([[Rat(1), Rat(0)], [Rat(0), Rat(1)]]) == 2
    assert exact_rank([[Rat(0), Rat(0)]]) == 0
    assert (
        exact_rank(
            [
                [Rat(1), Rat(2), Rat(3)],
                [Rat(2), Rat(4), Rat(6)],
                [Rat(1), Rat(1), Rat(1)],
            ]
        )
        == 2
    )


def test_standard_functional_matrix_ranks():
    assert exact_rank([fn.coefficients for fn in standard_functionals(2, 2)]) == 3
    assert exact_rank([fn.coefficients for fn in standard_functionals(2, 3)]) == 5


@pytest.mark.parametrize("shape", [(2, 2), (2, 3)])
@pytest.mark.parametrize("map_name", ["rowmotion", "promotion"])
def test_homomesy_space_dimension(shape, map_name):
    poset = rectangle_poset(*shape)
    rng = seeded_rng(83)
    fns = standard_functionals(*shape)
    samples = [
        PL.array(poset, random_polytope_point(poset, rng))
        for _ in range(4 * poset.size)
    ]
    report = homomesy_space_rank(PL, map_name, samples, fns)
    assert report["pass"], report
    assert report["nullspace_dim"] == report["functional_rank"]
    doubled = samples + [
        PL.array(poset, random_polytope_point(poset, rng))
        for _ in range(4 * poset.size)
    ]
    again = homomesy_space_rank(PL, map_name, doubled, fns)
    assert again["nullspace_dim"] == report["nullspace_dim"]


def test_homomesy_space_rank_needs_two_samples():
    poset = grid22()
    with pytest.raises(ValueError):
        homomesy_space_rank(PL, "rowmotion", [pl_array(poset, 0, 0, 0, 0)], [])


def unit(size, x):
    return [ONE if y == x else Rat(0) for y in range(size)]


def test_rank_audit_needs_two_starts_and_counts_the_first_difference():
    with pytest.raises(ValueError, match="two sample starts"):
        average_space_rank(PL, "rowmotion", [unit(3, 0)], [])
    two = average_space_rank(PL, "rowmotion", [unit(3, 0), unit(3, 1)], [])
    assert (two["samples"], two["nullspace_dim"], two["stable"]) == (2, 2, True)
    # Only the first start differs from the base: the rank is 1, not 0.
    first = average_space_rank(PL, "rowmotion", [unit(3, 0)] + [unit(3, 1)] + [unit(3, 0)] * 4, [])
    assert (first["nullspace_dim"], first["stable"]) == (2, True)


@pytest.mark.parametrize("count, half", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3)])
def test_rank_audit_calls_the_first_half_of_the_differences_stable(count, half):
    # count differences: p copies of e1, then e2.  The first half reaches
    # the full rank exactly when an e2 falls in it, that is when p < half.
    zero = [Rat(0)] * 3

    def stable(p):
        averages = [zero] + [unit(3, 0)] * p + [unit(3, 1)] * (count - p)
        return average_space_rank(PL, "rowmotion", averages, [])["stable"]

    assert [stable(p) for p in range(count)] == [p < half for p in range(count)]


def test_functional_equality_and_repr():
    fn = Functional("demo", (Rat(1), Rat(0)))
    assert fn == Functional("demo", (Rat(1), Rat(0)))
    assert fn != Functional("other", (Rat(1), Rat(0)))
    assert "demo" in repr(fn)
