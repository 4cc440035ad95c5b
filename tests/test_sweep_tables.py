"""Ideal sweeps answered from per-order tables over J(P).

The kernel's plain toggle loop is the oracle: every tabled sweep must
give the mask the loop gives, the first time a mask is seen (cold) and
when its image is read back (warm).  Once J(P) is enumerated, a step
returns the poset's shared ideal for its image.
"""

from math import comb

import pytest

from togglekit import dynamics, posets, verify
from togglekit.kernels import pybitops
from togglekit.kernels.pybitops import _sweep_loop
from togglekit.posets import (
    OrderIdeal,
    Poset,
    enumerate_ideal_masks,
    enumerate_ideals,
    file_toggle_ideal,
    promotion_ideal,
    rectangle_poset,
    rowmotion_ideal,
    toggle_ideal,
    triangle_poset,
)
from togglekit.sampling import random_ideal, seeded_rng
from togglekit.verify import SUITES

SHAPES = [(a, b) for a in range(1, 5) for b in range(1, 5)]


def _posets():
    return [rectangle_poset(a, b) for a, b in SHAPES] + [triangle_poset(n) for n in range(1, 5)]


def _steps(poset):
    'Every ideal sweep of the poset: (its toggle order, the public map).'
    steps = [
        (poset.rowmotion_order, rowmotion_ideal),
        (poset.promotion_order, promotion_ideal),
    ]
    for k in range(1, len(poset.files) + 1):
        steps.append((poset.file_members(k), lambda i, k=k: file_toggle_ideal(i, k)))
    return steps


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_tabled_sweeps_equal_the_loop_cold_and_warm(poset):
    """Fresh ideals, found by mask, and shared ones, read by position.

    Each kind goes first on its own copy of the poset, so each fills the
    table cold and then reads it warm.
    """
    lows, ups = poset.lower_masks, poset.upper_masks
    for shared_first in (False, True):
        copy = Poset(poset.size, poset.covers, poset.labels, poset.rc)
        masks = enumerate_ideal_masks(copy)
        shared = enumerate_ideals(copy)
        fresh = [OrderIdeal.from_mask(copy, m) for m in masks]
        passes = (shared, fresh) if shared_first else (fresh, shared)
        for order, step in _steps(copy):
            expected = [_sweep_loop(m, order, lows, ups) for m in masks]
            for ideals in passes + passes:
                assert [step(i).mask for i in ideals] == expected
            images = copy._sweep_tables[order][5]
            assert [image.mask for image in images] == expected  # all recorded on the first pass


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_kernel_reads_each_image_position_by_position(poset):
    """Given a table and a position, the kernel returns the table's value
    at the position of the loop's image, by identity: cold, when it fills
    the slot, and warm, when it reads the slot back.
    """
    masks = enumerate_ideal_masks(poset)
    lows, ups = poset.lower_masks, poset.upper_masks
    for order, _ in _steps(poset):
        values = [("value", m) for m in masks]
        table = (order, lows, ups, masks, values, [None] * len(masks))
        expected = [_sweep_loop(m, order, lows, ups) for m in masks]
        for _ in ("cold", "warm"):
            read = [pybitops.sweep(table, k) for k in range(len(masks))]
            assert all(r is values[masks.index(m)] for r, m in zip(read, expected))
        assert table[5] == read


def test_patched_order_gets_its_own_table(monkeypatch):
    poset = rectangle_poset(3, 3)
    masks = enumerate_ideal_masks(poset)
    order = poset.rowmotion_order
    before = [rowmotion_ideal(OrderIdeal.from_mask(poset, m)).mask for m in masks]
    flipped = tuple(reversed(order))
    monkeypatch.setattr(Poset, "rowmotion_order", property(lambda p: flipped))
    after = [rowmotion_ideal(OrderIdeal.from_mask(poset, m)).mask for m in masks]
    lows, ups = poset.lower_masks, poset.upper_masks
    assert after == [_sweep_loop(m, flipped, lows, ups) for m in masks]
    assert after != before
    assert poset._sweep_tables[flipped] is not poset._sweep_tables[order]


def test_no_table_before_enumeration():
    poset = rectangle_poset(3, 4)
    ideal = OrderIdeal(poset, [0, 1])
    order = poset.rowmotion_order
    expected = _sweep_loop(ideal.mask, order, poset.lower_masks, poset.upper_masks)
    assert rowmotion_ideal(ideal).mask == expected
    assert poset._sweep_tables == {}


def test_non_ideal_mask_gets_the_loop_result():
    poset = rectangle_poset(3, 3)
    masks = enumerate_ideal_masks(poset)
    top = 1 << (poset.size - 1)
    assert top not in masks
    ideal = OrderIdeal.from_mask(poset, top, validate=False)
    for order, step in _steps(poset):
        expected = _sweep_loop(top, order, poset.lower_masks, poset.upper_masks)
        for _ in ("cold", "warm"):
            assert step(ideal).mask == expected


def test_one_kernel_sweep_per_ideal_step(monkeypatch):
    poset = rectangle_poset(3, 4)
    masks = enumerate_ideal_masks(poset)
    calls = []
    sweep = pybitops.sweep

    def counted(table, position, mask=None):
        calls.append(mask if position is None else table[3][position])
        return sweep(table, position, mask)

    monkeypatch.setattr(pybitops, "sweep", counted)
    ideals = [OrderIdeal.from_mask(poset, m) for m in masks]
    for ideal in ideals + ideals:
        rowmotion_ideal(ideal)
    assert calls == masks + masks
    for step in (promotion_ideal, rowmotion_ideal):
        calls.clear()
        for ideal in ideals + ideals:
            step(ideal)
        assert calls == masks + masks
    calls.clear()
    for ideal in ideals:
        rowmotion_ideal(ideal)
        promotion_ideal(ideal)
    assert calls == [m for m in masks for _ in "rp"]
    top = OrderIdeal.from_mask(poset, 1 << (poset.size - 1), validate=False)
    calls.clear()
    for step in (rowmotion_ideal, rowmotion_ideal, promotion_ideal, promotion_ideal):
        step(top)  # not in J(P): cold, then warm with an image outside J(P)
    assert calls == [top.mask] * 4


def test_interleaved_maps_switch_tables_every_step(monkeypatch):
    """Rowmotion, promotion, file toggles and a patched rowmotion order in turn.

    No two consecutive steps share a toggle order, so every step switches
    the poset's last table; each must still give the loop's image as the
    shared ideal, cold and warm.
    """
    poset = rectangle_poset(3, 4)
    shared = enumerate_ideals(poset)
    masks = enumerate_ideal_masks(poset)
    lows, ups = poset.lower_masks, poset.upper_masks
    flipped = tuple(reversed(poset.rowmotion_order))
    steps = _steps(poset) + [(flipped, rowmotion_ideal)]
    current = [None]
    monkeypatch.setattr(Poset, "rowmotion_order", property(lambda p: current[0]))
    last = None
    for _ in ("cold", "warm"):
        for ideal in shared:
            for order, step in steps:
                if step is rowmotion_ideal:
                    current[0] = order
                image = step(ideal)
                assert image.mask == _sweep_loop(ideal.mask, order, lows, ups)
                assert image is shared[masks.index(image.mask)]
                assert poset._last_table[0] is order is not last
                last = order


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_toggle_ideal_returns_the_shared_ideal_once_enumerated(poset):
    assert toggle_ideal(OrderIdeal.from_mask(poset, 0), 0).position is None
    shared = enumerate_ideals(poset)
    masks = enumerate_ideal_masks(poset)
    assert toggle_ideal(shared[0], 0) is shared[1]  # {0} follows the empty ideal
    for ideal in shared + [OrderIdeal.from_mask(poset, m) for m in masks]:
        for x in range(poset.size):
            image = toggle_ideal(ideal, x)
            assert image is shared[masks.index(image.mask)]
    top = OrderIdeal.from_mask(poset, 1 << (poset.size - 1), validate=False)
    if poset.size > 1:  # not in J(P), and neither is its toggle at 0
        assert toggle_ideal(top, 0).position is None


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_positions_are_found_by_bisection_at_every_edge(poset):
    """Every member of J(P) is found at its position; a mask below the
    first member, between two members or above the last is not."""
    masks = enumerate_ideal_masks(poset)
    assert [posets._position(poset, m) for m in masks] == list(range(len(masks)))
    full = (1 << poset.size) - 1
    assert masks[0] == 0 and masks[-1] == full
    members = set(masks)
    between = [m for m in range(full) if m not in members]
    assert len(between) == full + 1 - len(masks)
    for mask in [-1, -full - 1] + between + [full + 1, full << 3]:
        assert posets._position(poset, mask) is None, mask


def test_masks_outside_j_of_p_get_new_ideals():
    """Toggles and sweeps of masks that lie between two members of J(P),
    or above the last, give new ideals with the loop's masks."""
    poset = rectangle_poset(3, 3)
    shared = enumerate_ideals(poset)
    masks = enumerate_ideal_masks(poset)
    lows, ups = poset.lower_masks, poset.upper_masks
    between = 1 << (poset.size - 1)  # the top element alone
    above = masks[-1] | 1 << poset.size  # a bit past the poset
    assert masks[0] < between < masks[-1] < above and between not in masks
    # Adding the bottom element keeps the first mask outside J(P); removing
    # the top element keeps the second above the last member.
    for mask, x in ((between, 0), (above, poset.size - 1)):
        outside = OrderIdeal.from_mask(poset, mask, validate=False)
        for _ in ("cold", "warm"):
            image = rowmotion_ideal(outside)
            assert image.mask == _sweep_loop(mask, poset.rowmotion_order, lows, ups)
            assert image.position is None and all(image is not i for i in shared)
            toggled = toggle_ideal(outside, x)
            assert toggled.mask == mask ^ 1 << x and toggled.position is None
            assert all(toggled is not i for i in shared)


def test_an_enumerated_poset_keeps_no_dict_keyed_by_masks():
    poset = rectangle_poset(3, 4)
    masks = set(enumerate_ideal_masks(poset))
    assert SUITES["order"](poset, samples=2, seed=1)["pass"]
    for _, step in _steps(poset):
        for ideal in enumerate_ideals(poset):
            toggle_ideal(step(ideal), 0)
    dicts = [value for value in vars(poset).values() if isinstance(value, dict)]
    assert poset._sweep_tables in dicts
    assert all(masks.isdisjoint(d) for d in dicts)
    assert all(type(part) is list for table in poset._sweep_tables.values() for part in table[3:])


def test_warm_steps_build_no_ideal(monkeypatch):
    poset = rectangle_poset(3, 4)
    shared = enumerate_ideals(poset)
    for _, step in _steps(poset):
        for ideal in shared:
            step(ideal)

    def refuse(*args, **kwargs):
        raise AssertionError("a warm step built an OrderIdeal")

    monkeypatch.setattr(OrderIdeal, "from_mask", refuse)
    for _, step in _steps(poset):
        for ideal in shared:
            assert step(step(ideal)) in shared  # a switch, then a repeat


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_ideal_masks_are_one_ascending_list(poset):
    masks = enumerate_ideal_masks(poset)
    assert isinstance(masks, list)
    assert masks == sorted(set(masks))
    assert enumerate_ideal_masks(poset) is masks


def test_ideal_masks_are_enumerated_once_per_poset(monkeypatch):
    poset = rectangle_poset(3, 3)
    calls = []
    enumerate_masks = pybitops.enumerate_ideals

    def counted(*args, **kwargs):
        calls.append(args[0])
        return enumerate_masks(*args, **kwargs)

    monkeypatch.setattr(pybitops, "enumerate_ideals", counted)
    enumerate_ideals(poset)
    assert SUITES["order"](poset, samples=2, seed=1)["pass"]
    rng = seeded_rng(7)
    for _ in range(25):
        random_ideal(poset, rng)
    assert calls == [poset.size]


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_steps_return_the_shared_enumerated_ideals(poset):
    shared = enumerate_ideals(poset)
    masks = enumerate_ideal_masks(poset)
    assert shared == enumerate_ideals(poset) and shared is not enumerate_ideals(poset)
    assert [i.mask for i in shared] == masks
    for order, step in _steps(poset):
        for i in shared:
            image = step(i)
            assert image is shared[masks.index(image.mask)]


@pytest.mark.parametrize("poset", _posets(), ids=repr)
def test_shared_ideals_carry_their_position(poset):
    shared = enumerate_ideals(poset)
    assert [i.position for i in shared] == list(range(len(shared)))
    assert all(poset._ideals[i.position] is i for i in shared)


def test_fresh_ideals_equal_their_shared_twins():
    poset = rectangle_poset(3, 4)
    for shared in enumerate_ideals(poset):
        for fresh in (OrderIdeal(poset, shared.indices), OrderIdeal.from_mask(poset, shared.mask)):
            assert fresh is not shared and fresh.position is None
            assert fresh == shared and shared == fresh
            assert hash(fresh) == hash(shared)
            for _, step in _steps(poset):
                assert step(fresh) is step(shared)
            for x in range(poset.size):
                image = toggle_ideal(fresh, x)
                assert image is toggle_ideal(shared, x)
                if image.mask == fresh.mask:  # a blocked toggle gives back the shared twin
                    assert image is shared
    twin = enumerate_ideals(rectangle_poset(3, 4))[5]
    assert twin == enumerate_ideals(poset)[5]  # an equal poset built apart


@pytest.mark.parametrize("poset", _posets() + [rectangle_poset(5, 6)], ids=repr)
def test_filled_slots_hold_the_enumerated_ints(poset):
    """Filled slots hold the enumerated shared ideals themselves.

    Every slot is the shared ideal of the loop's image, by identity, and
    that ideal carries its enumerated position.
    """
    masks = enumerate_ideal_masks(poset)
    shared = enumerate_ideals(poset)
    lows, ups = poset.lower_masks, poset.upper_masks
    for order, step in _steps(poset):
        for ideal in shared:
            step(ideal)
        _, _, _, table_masks, table_ideals, images = poset._sweep_tables[order]
        assert table_masks is masks and table_ideals is poset._ideals
        for k, image in enumerate(images):
            j = masks.index(_sweep_loop(masks[k], order, lows, ups))
            assert image is shared[j] and image.position == j


def test_random_ideal_draws_the_shared_ideals_from_the_same_stream():
    poset = rectangle_poset(3, 3)
    shared = enumerate_ideals(poset)
    masks = enumerate_ideal_masks(poset)
    rng, twin = seeded_rng(11), seeded_rng(11)
    for _ in range(30):
        ideal = random_ideal(poset, rng)
        assert ideal is shared[masks.index(twin.choice(masks))]


@pytest.mark.parametrize("a,b", [(3, 3), (2, 4)])
def test_order_suite_makes_one_kernel_sweep_per_ideal_step(monkeypatch, a, b):
    """The order suite's call structure, as perfbench's trace gate counts it.

    Every binding of the ideal maps is wrapped, as perfbench/tracer.py does,
    and both counts must equal the formula of perfbench/run.py:per_layer:
    two maps, each raised to the (a+b)-th power on every ideal of J(P).
    """
    counts = {"steps": 0, "sweeps": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("rowmotion_ideal", "promotion_ideal", "file_toggle_ideal", "toggle_ideal")
    wrapped = {name: counted(getattr(posets, name), "steps") for name in names}
    for module in (posets, verify):
        for name, wrapper in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    for name, (ideal_step, array_step) in dynamics.MAPS.items():
        monkeypatch.setitem(dynamics.MAPS, name, (wrapped[ideal_step.__name__], array_step))
    monkeypatch.setattr(pybitops, "sweep", counted(pybitops.sweep, "sweeps"))
    assert SUITES["order"](rectangle_poset(a, b), samples=2, seed=1)["pass"]
    want = 2 * comb(a + b, a) * (a + b)
    assert counts == {"steps": want, "sweeps": want}


def test_order_suite_switches_tables_once_per_map(monkeypatch):
    'The order suite walks one map at a time, so only two steps find a table by order.'
    orders = []
    sweep = posets._sweep

    def counted(ideal, order):
        orders.append(order)
        return sweep(ideal, order)

    monkeypatch.setattr(posets, "_sweep", counted)
    poset = rectangle_poset(3, 3)
    assert SUITES["order"](poset, samples=2, seed=1)["pass"]
    assert orders == [poset.rowmotion_order, poset.promotion_order]


def test_order_suite_fails_on_a_corrupt_warm_slot():
    """A filled rowmotion slot sent out of its orbit fails the power check.

    The first suite call fills the table; in the second every rowmotion
    step but the first reads it warm.  The empty ideal's slot now holds
    the shared ideal of another orbit, so the empty ideal never comes
    back.
    """
    poset = rectangle_poset(3, 3)
    assert SUITES["order"](poset, samples=2, seed=1)["pass"]
    shared = enumerate_ideals(poset)
    images = poset._sweep_tables[poset.rowmotion_order][5]
    orbit, ideal = set(), shared[0]
    while ideal.position not in orbit:
        orbit.add(ideal.position)
        ideal = images[ideal.position]
    images[0] = shared[min(set(range(len(images))) - orbit)]
    report = SUITES["order"](poset, samples=2, seed=1)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [(c["check"], c["regime"]) for c in failed] == [
        ("rowmotion-power-6-is-identity", "combinatorial")
    ]
    assert failed[0]["violations"][0] == {"start": []}
