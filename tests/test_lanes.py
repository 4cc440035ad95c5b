"""The integer walk lanes against the generic toggle loop as the oracle.

pl_algebra and birational_algebra walk through exact integer lanes; an
algebra built from the same rules with ToggleAlgebra(...) has no lane and
toggles one element at a time through the aggregation rules.  Every
sweep (rowmotion, promotion, their inverses, each file toggle), and every
walk of those orders that reads each entry after its own number of
sweeps, must give the same array both ways, or raise ZeroDivisionError
both ways.  The lanes run only the toggles that a read entry depends on;
the schedule tests pin how many that is on the walks the suites make.
The birational lane declines input with a value or boundary value that
is not positive, so the reference loop runs and raises there.  Besides
rectangles and triangles, the posets include two without an rc embedding
whose elements have three and four lower or upper covers, so that the
lanes' loops over covers past the second run too; they have rowmotion
walks but no promotion, files or shears.

walks runs chains of walks in a lane's own ints and returns lane states;
they must be the reference's arrays, entry for entry, and compare equal
exactly when the reference's arrays do, also where stages over one order
object continue one run and so share one walk.

The homomesy orbit walks run in the same lanes, over frozen lane states;
the orbit aggregate, its period, the functionals' statistics and the
average vector must be those of the reference walk over step_map, and a
walk past cap must raise the same OrbitError.

Last come negative controls: mutants of a lane's enter or stage, and of
the orbit aggregate, each of which the same comparison must reject on a
fixed list of inputs.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import rewrite
from togglekit import (
    BIRATIONAL,
    PL,
    PArray,
    ToggleAlgebra,
    birational_algebra,
    file_toggle,
    pl_algebra,
    promotion,
    promotion_inverse,
    recombine,
    recombine_inverse,
    rowmotion,
    rowmotion_inverse,
)
from togglekit import Functional, birational, dynamics, homomesy
from togglekit.birational import _depths, shear_stages
from togglekit.dynamics import MAX_SCHEDULES, Lane, _schedule, iterate, walk_program, walks
from togglekit.homomesy import orbit_average_vector, orbit_statistics
from togglekit.orbits import OrbitError
from togglekit.verify import suite_recombination
from togglekit.posets import Poset, PosetError, rectangle_poset, triangle_poset
from togglekit.rational import ONE, Rat

# 0 < 1, 2, 3 < 4; and 0, 1 < 2, 0 < 3, 4, 0, 1 < 5, with 2, 3, 4, 5 < 6.
WIDE = [
    Poset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    Poset(7, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 6), (3, 6), (4, 6), (5, 6)]),
]
POSETS = [rectangle_poset(a, b) for a in range(1, 4) for b in range(1, 5)]
POSETS += [triangle_poset(n) for n in range(1, 5)] + WIDE

small = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12)
large = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=10**15
)
rationals = st.one_of(small, large).map(Rat)

positive_small = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(9), max_denominator=12
)
positive_large = st.fractions(
    min_value=Fraction(1, 10**9), max_value=Fraction(10**6), max_denominator=10**15
)
positive_rationals = st.one_of(positive_small, positive_large).map(Rat)

# Zero entries and cover values summing to zero turn up often.
signed = st.one_of(st.integers(-2, 2).map(Fraction), small).map(Rat)


def reference(alg):
    'The same rules and boundary as alg, without a sweep lane.'
    return ToggleAlgebra(
        alg.name,
        alg.lower_aggregate,
        alg.upper_aggregate,
        alg.recombine,
        alg.bottom_value,
        alg.top_value,
        alg.positive_domain,
    )


def sweeps(poset):
    """Every sweep of the poset: the four whole-poset maps and each file
    toggle, or without an rc embedding rowmotion and its inverse."""
    if poset.rc is None:
        return [rowmotion, rowmotion_inverse]
    maps = [rowmotion, rowmotion_inverse, promotion, promotion_inverse]
    maps += [
        lambda alg, f, k=k: file_toggle(alg, f, k)
        for k in range(1, len(poset.files) + 1)
    ]
    return maps


def orders(poset):
    """Every sweep order: rowmotion, promotion, their inverses and each
    file, or without an rc embedding rowmotion's order and its reverse."""
    if poset.rc is None:
        return [poset.rowmotion_order, poset.rowmotion_order[::-1]]
    forward = [poset.rowmotion_order, poset.promotion_order]
    return forward + [order[::-1] for order in forward] + list(poset.files)


def times_vectors(poset):
    'Sweep counts per entry, 0..a+b on [a]x[b]: the top rank plus 2.'
    most = max(poset.ranks, default=0) + 2
    return st.lists(st.integers(0, most), min_size=poset.size, max_size=poset.size)


def outcome(sweep, alg, f):
    try:
        return sweep(alg, f)
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_lane_matches_reference(alg, f, times):
    assert alg.sweep is not None
    oracle = reference(alg)
    for sweep in sweeps(f.poset):
        assert outcome(sweep, alg, f) == outcome(sweep, oracle, f)
    for order in orders(f.poset):

        def walk(algebra, g):
            return iterate(algebra, g, order, times)

        assert outcome(walk, alg, f) == outcome(walk, oracle, f)


def arrays(draw, alg, entries):
    poset = draw(st.sampled_from(POSETS))
    return alg.array(poset, draw(st.lists(entries, min_size=poset.size, max_size=poset.size)))


def with_times(draw, f):
    return f, draw(times_vectors(f.poset))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pl_lane_matches_reference(data):
    ends = data.draw(st.none() | st.tuples(rationals, rationals))
    alg = PL if ends is None else pl_algebra(*ends)
    assert_lane_matches_reference(alg, *with_times(data.draw, arrays(data.draw, alg, rationals)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_birational_lane_matches_reference(data):
    ends = data.draw(st.none() | st.tuples(positive_rationals, positive_rationals))
    alg = BIRATIONAL if ends is None else birational_algebra(*ends)
    f = arrays(data.draw, alg, positive_rationals)
    assert_lane_matches_reference(alg, *with_times(data.draw, f))


def unchecked(draw, poset):
    """An algebra of either regime at a drawn boundary, and values for
    poset that PArray(...) does not check: zeros and signs of every kind,
    in the values and the boundary."""
    make = draw(st.sampled_from([pl_algebra, birational_algebra]))
    values = draw(st.lists(signed, min_size=poset.size, max_size=poset.size))
    return make(*draw(st.tuples(signed, signed))), PArray(poset, values)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POSETS), st.data())
def test_lanes_match_reference_on_unchecked_arrays(poset, data):
    alg, f = unchecked(data.draw, poset)
    assert_lane_matches_reference(alg, *with_times(data.draw, f))


@pytest.mark.parametrize(
    "values",
    [
        ("0", "1", "1", "1"),  # (1,1) is zero, so L*R/v divides by zero
        ("1", "1", "-1", "1"),  # the upper covers of (1,1) have parallel sum 1/0
    ],
)
def test_birational_lane_raises_where_the_reference_does(values):
    f = PArray(rectangle_poset(2, 2), [Rat(v) for v in values])
    for alg in (BIRATIONAL, reference(BIRATIONAL)):
        with pytest.raises(ZeroDivisionError):
            file_toggle(alg, f, 2)


@pytest.mark.parametrize("alg", [PL, BIRATIONAL, reference(PL), reference(BIRATIONAL)])
def test_walk_reads_each_entry_after_its_own_sweeps(alg):
    poset = rectangle_poset(3, 4)
    f = alg.array(poset, [Rat(k + 1, 13) for k in range(poset.size)])
    powers = [f]
    for _ in range(4):
        powers.append(rowmotion(alg, powers[-1]))
    times = [x % 5 for x in range(poset.size)]
    walk = iterate(alg, f, poset.rowmotion_order, times)
    assert walk.values == tuple(powers[t][x] for x, t in enumerate(times))
    # Entries outside the order's file keep f's own values.
    walk = iterate(alg, f, poset.file_members(2), [3] * poset.size)
    outside = set(range(poset.size)) - set(poset.file_members(2))
    assert all(walk[x] is f[x] for x in outside)
    assert iterate(alg, f, poset.rowmotion_order, [0] * poset.size) == f


def toggle_counts(poset, order, times):
    'Toggles of the schedule of a walk.'
    return sum(len(toggles) for toggles, _ in _schedule(poset, order, times))


@pytest.mark.parametrize("a", range(1, 7))
@pytest.mark.parametrize("b", range(1, 7))
def test_schedules_run_only_the_live_toggles(a, b):
    poset = rectangle_poset(a, b)
    depths = _depths(poset)
    # The shears read column j after j - 1 sweeps: half their toggles are live.
    for order in (poset.promotion_order[::-1], poset.rowmotion_order):
        assert toggle_counts(poset, order, depths) == a * b * (b - 1) // 2
    # The order suite reads every entry after a + b sweeps, so nothing is dead.
    assert toggle_counts(poset, poset.rowmotion_order, [a + b] * poset.size) == a * b * (a + b)


def test_schedule_toggles_name_boundary_slots_and_every_cover():
    poset = WIDE[0]
    ((toggles, reads),) = _schedule(poset, poset.rowmotion_order, [1] * poset.size)
    # Slot 5 holds the bottom boundary value and slot 6 the top one.
    assert toggles == [
        (4, 1, 2, (3,), 6, None, ()),
        (1, 0, None, (), 4, None, ()),
        (2, 0, None, (), 4, None, ()),
        (3, 0, None, (), 4, None, ()),
        (0, 5, None, (), 1, 2, (3,)),
    ]
    assert reads == ((4, 1, 2, 3, 0),)


@pytest.mark.parametrize("a, b", [(2, 3), (3, 4), (8, 8)])
def test_every_sweep_of_a_plan_shares_one_toggle_tuple_per_element(a, b):
    poset = rectangle_poset(a, b)
    plans = [
        (poset.rowmotion_order, [a + b] * poset.size),
        (poset.promotion_order, [a + b] * poset.size),
        (poset.promotion_order[::-1], _depths(poset)),
    ]
    for order, times in plans:
        plan = _schedule(poset, order, times)
        shared = {}
        for toggles, _ in plan:
            for toggle in toggles:
                assert shared.setdefault(toggle[0], toggle) is toggle
        # The order suite's plans toggle every element in each of a + b sweeps.
        if len(set(times)) == 1:
            assert sum(len(toggles) for toggles, _ in plan) == (a + b) * poset.size
            assert len(shared) == poset.size


def test_recombination_suite_compiles_its_walks_once(monkeypatch):
    calls = []

    def schedule(*args):
        calls.append(args)
        return _schedule(*args)

    monkeypatch.setattr(dynamics, "_schedule", schedule)
    counts = []
    for samples in (1, 20):
        calls.clear()
        assert suite_recombination(rectangle_poset(3, 3), samples=samples, seed=1)["pass"]
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_reciprocity_schedule_on_six_by_six():
    poset = rectangle_poset(6, 6)
    times = [i + j - 1 for i, j in poset.labels]
    assert toggle_counts(poset, poset.rowmotion_order, times) == 216


@pytest.mark.parametrize("shear", [recombine, recombine_inverse])
def test_birational_lane_raises_on_a_zero_whose_toggles_are_all_dead(shear):
    poset = rectangle_poset(2, 3)
    zero = poset.index_of((2, 1))
    # Column 1 is read before any sweep, so no live toggle touches (2, 1) itself.
    for order in (poset.promotion_order[::-1], poset.rowmotion_order):
        live = _schedule(poset, order, _depths(poset))
        assert all(x != zero for toggles, _ in live for x, _, _, _, _, _, _ in toggles)
    values = [Rat(1)] * poset.size
    values[zero] = Rat(0)
    f = PArray(poset, values)
    for alg in (BIRATIONAL, reference(BIRATIONAL)):
        with pytest.raises(ZeroDivisionError):
            shear(alg, f)


def test_schedule_cache_stays_bounded():
    poset = rectangle_poset(6, 6)
    f = PL.array(poset, [Rat(k + 1, 37) for k in range(poset.size)])
    oracle = reference(PL)
    rng = random.Random(11)
    for _ in range(3000):
        times = [rng.randrange(4) for _ in range(poset.size)]
        walk = iterate(PL, f, poset.rowmotion_order, times)
        assert len(poset._schedules) <= MAX_SCHEDULES
        assert walk == iterate(oracle, f, poset.rowmotion_order, times)


def stages(poset):
    """One stage per sweep, in orders(poset) order with each sweep's inverse
    at the same index of inverses(poset), then the two shears."""
    once = [1] * poset.size
    shears = [] if poset.rc is None else list(shear_stages(poset))
    return [(order, once) for order in orders(poset)] + shears


def inverses(poset):
    'Index of the inverse of each sweep stage: toggles are involutions.'
    if poset.rc is None:
        return [1, 0]
    return [2, 3, 0, 1] + list(range(4, 4 + len(poset.files)))


def walked(alg, f, chains):
    """The walks of walk_program(f.poset, *chains) from f as arrays, with
    the matrix of which results compare equal; or ZeroDivisionError."""
    try:
        results = walks(alg, f, walk_program(f.poset, *chains))
    except ZeroDivisionError:
        return ZeroDivisionError
    same = [[a == b for b in results] for a in results]
    lane = alg.sweep
    start = None if lane is None else lane.enter(f.values, alg.boundary)
    if start is None:
        assert all(isinstance(r, PArray) for r in results)
    else:
        every = range(f.poset.size)
        results = [f._replace(lane.leave(r, every)) for r in results]
    return results, same


def chain_sets(draw, poset):
    """Random chains over every stage, plus one chain that walks a random
    run of sweeps and back, and the empty chain: so equal and unequal
    results both turn up."""
    every = stages(poset)
    picks = st.lists(st.integers(0, len(every) - 1), max_size=3)
    chains = [[every[k] for k in ks] for ks in draw(st.lists(picks, min_size=1, max_size=4))]
    back = inverses(poset)
    there = draw(st.lists(st.sampled_from(range(len(back))), min_size=1, max_size=3))
    chains.append([every[k] for k in there] + [every[back[k]] for k in reversed(there)])
    return chains + [[]]


def assert_walks_match_reference(alg, f, chains):
    assert walked(alg, f, chains) == walked(reference(alg), f, chains)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_pl_walks_match_reference(data):
    ends = data.draw(st.none() | st.tuples(rationals, rationals))
    alg = PL if ends is None else pl_algebra(*ends)
    f = arrays(data.draw, alg, rationals)
    assert_walks_match_reference(alg, f, chain_sets(data.draw, f.poset))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_birational_walks_match_reference(data):
    ends = data.draw(st.none() | st.tuples(positive_rationals, positive_rationals))
    alg = BIRATIONAL if ends is None else birational_algebra(*ends)
    f = arrays(data.draw, alg, positive_rationals)
    assert_walks_match_reference(alg, f, chain_sets(data.draw, f.poset))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(POSETS), st.data())
def test_walks_match_reference_on_unchecked_arrays(poset, data):
    'A birational start that is not positive is declined, and raises where the reference does.'
    alg, f = unchecked(data.draw, poset)
    assert_walks_match_reference(alg, f, chain_sets(data.draw, poset))


@pytest.mark.parametrize(
    "alg, shape, values",
    [
        # File 1 of [2]x[2] is one element: the two walks differ in that entry only.
        (PL, (2, 2), ["1/5", "2/5", "3/5", "4/5"]),
        # 1/2 toggles to (1/6)/(1/2) = 1/3: the same numerator.
        (birational_algebra(1, Rat(1, 6)), (1, 1), ["1/2"]),
        # 1/3 toggles to (2/9)/(1/3) = 2/3: the same denominator.
        (birational_algebra(1, Rat(2, 9)), (1, 1), ["1/3"]),
    ],
)
def test_walks_compare_whole_states(alg, shape, values):
    f = alg.array(rectangle_poset(*shape), [Rat(v) for v in values])
    chains = [[(f.poset.file_members(1), [1] * f.poset.size)], []]
    (toggled, start), same = walked(alg, f, chains)
    assert toggled == file_toggle(alg, f, 1) and start == f
    assert same == [[True, False], [False, True]]


@pytest.mark.parametrize(
    "shift",
    [
        lambda depths: [d + (d > 0) for d in depths],
        lambda depths: [d + (d == max(depths)) for d in depths],
    ],
    ids=["every-diagonal-but-the-first", "the-deepest-diagonal"],
)
def test_recombination_suite_fails_on_shears_off_by_one(monkeypatch, shift):
    # Shifting every depth by one is no mutation: it composes the shear with
    # one more promotion, which it conjugates, so the suite still passes.
    monkeypatch.setattr(birational, "_depths", lambda poset: shift(_depths(poset)))
    report = suite_recombination(rectangle_poset(3, 3), samples=5, seed=1)
    failed = {c["regime"] for c in report["checks"] if not c["pass"]}
    assert not report["pass"] and failed == {"pl", "birational"}


def test_walks_share_leading_stages():
    poset = rectangle_poset(3, 3)
    calls = []

    def stage(state, plan, count):
        calls.append(count)
        return PL.sweep.stage(state, plan, count)

    lane = Lane(PL.sweep.enter, stage, PL.sweep.leave)
    counting = ToggleAlgebra("pl", max, min, PL.recombine, PL.bottom_value, PL.top_value, sweep=lane)
    f = PL.array(poset, [Rat(k + 1, 11) for k in range(poset.size)])
    row, prom = ([(order, [1] * poset.size)] for order in orders(poset)[:2])
    copy = [(*row[0],)]  # an equal stage, but another object
    twice = [(row[0][0], [2] * poset.size)]  # row's order, read one sweep later
    other = [(list(row[0][0]), row[0][1])]  # an equal stage over another order object
    program = walk_program(poset, row + prom, row + row, row, [], copy, twice, other)
    results = walks(counting, f, program)
    # One walk of row's order from f reads row, copy and twice; row's run
    # continues over two orders; other's order is walked on its own.
    assert calls == [3, 1, 1, 1]
    assert results == walks(PL, f, program)
    assert results[2] == results[4] != results[3]
    assert results[5] == results[1] != results[2] == results[6]


def test_a_declined_start_is_entered_once():
    poset = rectangle_poset(3, 3)
    calls = []

    def enter(values, boundary):
        calls.append(values)
        return BIRATIONAL.sweep.enter(values, boundary)

    lane = Lane(enter, BIRATIONAL.sweep.stage, BIRATIONAL.sweep.leave)
    counting = ToggleAlgebra(
        "birational", BIRATIONAL.lower_aggregate, BIRATIONAL.upper_aggregate,
        BIRATIONAL.recombine, ONE, ONE, True, sweep=lane,
    )
    f = PArray(poset, [Rat(-(k + 1), 7) for k in range(poset.size)])
    chain = [(order, [1] * poset.size) for order in orders(poset)[:3]]
    program = walk_program(poset, chain, chain[:1])
    results = walks(counting, f, program)
    # The lane declines f once; the three stages then run the reference loop.
    assert calls == [f.values]
    assert results == walks(reference(BIRATIONAL), f, program)
    assert all(isinstance(r, PArray) for r in results)


def test_walks_refuse_a_program_for_another_poset():
    f = PL.array(rectangle_poset(2, 2), [Rat(k + 1, 5) for k in range(4)])
    program = walk_program(rectangle_poset(3, 3), [])
    with pytest.raises(PosetError, match="another poset"):
        walks(PL, f, program)
    # An equal poset built again is the same poset.
    assert walks(PL, f, walk_program(rectangle_poset(2, 2), [])) == walks(
        PL, f, walk_program(f.poset, [])
    )


def shared_chain_sets(draw, poset):
    """Chains that continue one random run with several stages over one
    order object: times t, t + 1 and another vector, a sweep then t
    (which reads what t + 1 reads), and a stage after t; plus the run."""
    every = stages(poset)
    run = [every[k] for k in draw(st.lists(st.integers(0, len(every) - 1), max_size=2))]
    order = draw(st.sampled_from([order for order, _ in every]))
    t, other = draw(times_vectors(poset)), draw(times_vectors(poset))
    at_t = (order, t)
    return [
        run + [at_t],
        run + [(order, [k + 1 for k in t])],
        run + [(order, other)],
        run + [(order, [1] * poset.size), at_t],
        run + [at_t, draw(st.sampled_from(every))],
        run,
    ]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pl_shared_order_walks_match_reference(data):
    ends = data.draw(st.none() | st.tuples(rationals, rationals))
    alg = PL if ends is None else pl_algebra(*ends)
    f = arrays(data.draw, alg, rationals)
    assert_walks_match_reference(alg, f, shared_chain_sets(data.draw, f.poset))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_birational_shared_order_walks_match_reference(data):
    ends = data.draw(st.none() | st.tuples(positive_rationals, positive_rationals))
    alg = BIRATIONAL if ends is None else birational_algebra(*ends)
    f = arrays(data.draw, alg, positive_rationals)
    assert_walks_match_reference(alg, f, shared_chain_sets(data.draw, f.poset))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(POSETS), st.data())
def test_shared_order_walks_match_reference_on_unchecked_arrays(poset, data):
    'A birational start that is not positive still comes back as PArrays.'
    alg, f = unchecked(data.draw, poset)
    assert_walks_match_reference(alg, f, shared_chain_sets(data.draw, poset))


def orbit_outcome(alg, map_name, f, functionals, cap):
    """The orbit aggregate and period of f, the functionals' statistics and
    the average vector; or the OrbitError message, or ZeroDivisionError."""
    try:
        return (
            dynamics.orbit_aggregate(alg, map_name, f, cap),
            orbit_statistics(alg, map_name, functionals, f, cap=cap),
            orbit_average_vector(alg, map_name, f, cap=cap),
        )
    except OrbitError as exc:
        return str(exc)
    except ZeroDivisionError:
        return ZeroDivisionError


def orbit_lane_matches_reference(alg, f, functionals, cap):
    'Rowmotion, and promotion where f.poset has an rc embedding.'
    maps = ["rowmotion"] if f.poset.rc is None else ["rowmotion", "promotion"]
    return all(
        orbit_outcome(alg, m, f, functionals, cap)
        == orbit_outcome(reference(alg), m, f, functionals, cap)
        for m in maps
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_orbit_lanes_match_the_step_map_walk(data):
    """Orbits of every regime, boundary and kind of start, at caps on
    either side of the period: a birational start that is not positive
    is declined and walks the reference, raising where it does."""
    kind = data.draw(st.sampled_from(["pl", "birational", "unchecked"]))
    if kind == "pl":
        ends = data.draw(st.none() | st.tuples(rationals, rationals))
        alg = PL if ends is None else pl_algebra(*ends)
        f = arrays(data.draw, alg, rationals)
    elif kind == "birational":
        ends = data.draw(st.none() | st.tuples(positive_rationals, positive_rationals))
        alg = BIRATIONAL if ends is None else birational_algebra(*ends)
        f = arrays(data.draw, alg, positive_rationals)
    else:
        alg, f = unchecked(data.draw, data.draw(st.sampled_from(POSETS)))
    exponents = st.lists(st.integers(-2, 2), min_size=f.poset.size, max_size=f.poset.size)
    drawn = data.draw(st.lists(exponents, max_size=3))
    functionals = [Functional(f"random{k}", c) for k, c in enumerate(drawn)]
    # Small caps: birational orbits on WIDE[1] do not close, and their
    # numbers grow quickly.
    cap = data.draw(st.integers(1, 12))
    assert orbit_lane_matches_reference(alg, f, functionals, cap)


# Negative controls: mutants of the lanes' parts, each installed in a copy
# of a lane, that the lane-vs-reference comparison must reject on a fixed
# list of inputs, without Hypothesis.
CONTROL_POSETS = [rectangle_poset(2, 2), rectangle_poset(3, 3), *WIDE]
CONTROL_ALGEBRAS = {
    "pl": [PL, pl_algebra(Rat(-1, 2), Rat(5, 3))],
    "birational": [BIRATIONAL, birational_algebra(Rat(2, 3), Rat(7, 2))],
}


def control_inputs(regime):
    'Each algebra of the regime with rising and falling arrays on each control poset.'
    for alg in CONTROL_ALGEBRAS[regime]:
        for poset in CONTROL_POSETS:
            rising = [Rat(k + 1, k + 2) for k in range(poset.size)]
            for values in (rising, rising[::-1]):
                yield alg, alg.array(poset, values), [1 + x % 3 for x in range(poset.size)]


def matches_reference(alg, f, times):
    try:
        assert_lane_matches_reference(alg, f, times)
    except AssertionError:
        return False
    return True


def wrong_top(enter):
    return lambda values, boundary: enter(values, (boundary[0], boundary[1] + 1))


def swapped_boundary(enter):
    return lambda values, boundary: enter(values, boundary[::-1])


# Mutant name -> the regime, the lane part it patches and the mutation.
MUTANTS = {
    "pl-wrong-top-boundary": ("pl", "enter", wrong_top),
    "bir-wrong-top-boundary": ("birational", "enter", wrong_top),
    "max-in-place-of-lcm": ("pl", "enter", rewrite("lcm(", "max(")),
    "dropped-factor": ("birational", "stage", rewrite("ln * d + n * ld", "ln * d + n")),
    "min-in-place-of-max": ("pl", "stage", rewrite("ints[l1] > left", "ints[l1] < left")),
    "pl-dropped-lower-rest-loop": ("pl", "stage", rewrite("in lows:", "in ():")),
    "pl-dropped-upper-rest-loop": ("pl", "stage", rewrite("in ups:", "in ():")),
    "bir-dropped-lower-rest-loop": ("birational", "stage", rewrite("in lows:", "in ():")),
    "bir-dropped-upper-rest-loop": ("birational", "stage", rewrite("in ups:", "in ():")),
    "pl-swapped-boundary-slots": ("pl", "enter", swapped_boundary),
    "bir-swapped-boundary-slots": ("birational", "enter", swapped_boundary),
    "pl-scale-from-top-slot": ("pl", "leave", rewrite("ints[-1]", "ints[-2]")),
    "pl-read-next-slot": ("pl", "leave", rewrite("Rat(ints[x],", "Rat(ints[x + 1],")),
    "bir-inverted-read": ("birational", "leave", rewrite("Rat(nums[x], dens[x])", "Rat(dens[x], nums[x])")),
}


@pytest.mark.parametrize("regime", CONTROL_ALGEBRAS)
def test_lanes_match_reference_on_the_control_inputs(regime):
    assert all(matches_reference(*args) for args in control_inputs(regime))


@pytest.mark.parametrize("regime, part, mutate", MUTANTS.values(), ids=MUTANTS.keys())
def test_lane_comparison_rejects_each_mutant(regime, part, mutate):
    rejected = 0
    for alg, f, times in control_inputs(regime):
        mutant = reference(alg)
        mutant.sweep = alg.sweep._replace(**{part: mutate(getattr(alg.sweep, part))})
        rejected += not matches_reference(mutant, f, times)
    assert rejected


# Mutant name -> a mutation of dynamics.orbit_aggregate.
ORBIT_MUTANTS = {
    "pl-lane-period-off-by-one": rewrite("[:size]], rec.period", "[:size]], rec.period + 1"),
    "bir-lane-period-off-by-one": rewrite(
        "prod(d)) for n, d in zip(nums, dens)], rec.period",
        "prod(d)) for n, d in zip(nums, dens)], rec.period - 1",
    ),
    "pl-lane-mean-times-period": rewrite("start[-1] * rec.period", "Rat(start[-1], rec.period)"),
    "reference-mean-times-period": rewrite("ZERO) / period", "ZERO) * period"),
}


def orbit_control_inputs():
    'The control inputs of both regimes, with two functionals, at a cap past every period.'
    for regime in CONTROL_ALGEBRAS:
        for alg, f, _ in control_inputs(regime):
            size = f.poset.size
            fns = [Functional("first", [1] + [0] * (size - 1)), Functional("all", [1] * size)]
            yield alg, f, fns, 12


def test_orbit_lanes_match_reference_on_the_control_inputs():
    assert all(orbit_lane_matches_reference(*args) for args in orbit_control_inputs())


@pytest.mark.parametrize("mutate", ORBIT_MUTANTS.values(), ids=ORBIT_MUTANTS.keys())
def test_orbit_lane_comparison_rejects_each_mutant(monkeypatch, mutate):
    mutant = mutate(dynamics.orbit_aggregate)
    for module in (dynamics, homomesy):
        monkeypatch.setattr(module, "orbit_aggregate", mutant)
    assert not all(orbit_lane_matches_reference(*args) for args in orbit_control_inputs())
