from togglekit.kernels import HAVE_COMPILED, kernel_for, pybitops
from togglekit.posets import rectangle_poset, triangle_poset

POSETS = [
    rectangle_poset(2, 2),
    rectangle_poset(2, 3),
    rectangle_poset(3, 3),
    triangle_poset(3),
]


def test_chain_toggle_semantics():
    # 2-chain 0 < 1: masks by hand
    lows = [0b00, 0b01]
    ups = [0b10, 0b00]
    assert pybitops.toggle(0b00, lows[0], ups[0], 0b01) == 0b01
    # blocked: upper cover present
    assert pybitops.toggle(0b10, lows[0], ups[0], 0b01) == 0b10
    # blocked: lower cover missing
    assert pybitops.toggle(0b00, lows[1], ups[1], 0b10) == 0b00
    assert pybitops.toggle(0b01, lows[1], ups[1], 0b10) == 0b11


def test_ideal_counts_on_grids():
    assert len(pybitops.enumerate_ideals(4, rectangle_poset(2, 2).lower_masks)) == 6
    assert len(pybitops.enumerate_ideals(6, rectangle_poset(2, 3).lower_masks)) == 10
    p44 = rectangle_poset(4, 4)
    assert len(pybitops.enumerate_ideals(p44.size, p44.lower_masks)) == 70


def test_enumerated_masks_are_ideals_and_unique():
    for poset in POSETS:
        masks = pybitops.enumerate_ideals(poset.size, poset.lower_masks)
        assert masks == sorted(set(masks))
        assert all(poset.is_ideal_mask(m) for m in masks)


def test_enumeration_stops_at_limit_plus_one():
    # 2**25 ideals on an antichain of 25; only limit + 1 are ever held.
    limit = 2**16
    assert len(pybitops.enumerate_ideals(25, [0] * 25, limit)) == limit + 1


def test_sweep_matches_elementwise_toggles():
    for poset in POSETS:
        lows, ups = poset.lower_masks, poset.upper_masks
        order = poset.rowmotion_order
        for mask in pybitops.enumerate_ideals(poset.size, lows):
            expected = mask
            for i in order:
                expected = pybitops.toggle(expected, lows[i], ups[i], 1 << i)
            assert pybitops.sweep((order, lows, ups), None, mask) == expected


def test_kernel_for_returns_pure_kernel():
    assert not HAVE_COMPILED
    assert kernel_for(16) is kernel_for(200) is pybitops
