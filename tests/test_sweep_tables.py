"""Ideal sweeps answered from per-order tables over J(P).

The kernel's plain toggle loop is the oracle: every tabled sweep must
give the mask the loop gives, the first time a mask is seen (cold) and
when its image is read back (warm).
"""

import pytest

from togglekit.kernels import pybitops
from togglekit.kernels.pybitops import _sweep_loop
from togglekit.posets import (
    OrderIdeal,
    Poset,
    enumerate_ideal_masks,
    file_toggle_ideal,
    promotion_ideal,
    rectangle_poset,
    rowmotion_ideal,
    triangle_poset,
)

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
    masks = enumerate_ideal_masks(poset)
    lows, ups = poset.lower_masks, poset.upper_masks
    for order, step in _steps(poset):
        expected = [_sweep_loop(m, order, lows, ups) for m in masks]
        for _ in ("cold", "warm"):
            got = [step(OrderIdeal.from_mask(poset, m)).mask for m in masks]
            assert got == expected
        _, images = poset.sweep_table(order)
        assert images == expected  # every image was recorded on the cold pass


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
    assert poset.sweep_table(flipped) is not poset.sweep_table(order)


def test_no_table_before_enumeration():
    poset = rectangle_poset(3, 4)
    ideal = OrderIdeal(poset, [0, 1])
    order = poset.rowmotion_order
    expected = _sweep_loop(ideal.mask, order, poset.lower_masks, poset.upper_masks)
    assert rowmotion_ideal(ideal).mask == expected
    assert poset.sweep_table(order) is None
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

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(pybitops, "sweep", counted)
    ideals = [OrderIdeal.from_mask(poset, m) for m in masks]
    for ideal in ideals + ideals:
        rowmotion_ideal(ideal)
    assert calls == masks + masks
