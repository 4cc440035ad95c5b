import pytest

from togglekit import posets
from togglekit.posets import (
    OrderIdeal,
    Poset,
    PosetError,
    brouwer_schrijver,
    complement_filter,
    down_closure,
    enumerate_ideals,
    file_toggle_ideal,
    filter_minimals,
    promotion_ideal,
    rectangle_poset,
    rowmotion_by_complementation,
    rowmotion_ideal,
    toggle_ideal,
    triangle_poset,
)
from togglekit.orbits import orbit_partition

# [2]x[2] canonical indices
W, X, Y, Z = 0, 1, 2, 3


def test_rectangle_2x2_layout():
    p = rectangle_poset(2, 2)
    assert p.size == 4
    assert p.labels == ((1, 1), (2, 1), (1, 2), (2, 2))
    assert sorted(p.covers) == [(W, X), (W, Y), (X, Z), (Y, Z)]
    assert p.ranks == (0, 1, 1, 2)
    assert p.files == ((X,), (W, Z), (Y,))
    assert p.rectangle_shape == (2, 2)


def test_rectangle_2x3_layout():
    p = rectangle_poset(2, 3)
    assert p.size == 6
    assert p.labels == ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3))
    assert p.ranks == (0, 1, 1, 2, 2, 3)
    assert len(p.files) == 4
    assert p.file_members(1) == (1,)
    assert p.file_members(2) == (0, 3)
    assert p.file_members(3) == (2, 5)
    assert p.file_members(4) == (4,)


def test_rectangle_order_relation():
    p = rectangle_poset(3, 4)
    for xi, xl in enumerate(p.labels):
        for yi, yl in enumerate(p.labels):
            assert p.leq(xi, yi) == (xl[0] <= yl[0] and xl[1] <= yl[1])


def test_triangle_2_is_a_chain():
    p = triangle_poset(2)
    assert p.size == 3
    assert p.labels == ((2, 2), (1, 1), (1, 2))
    assert sorted(p.covers) == [(0, 1), (1, 2)]


def test_triangle_sizes_and_gradedness():
    for n, size in ((1, 1), (2, 3), (3, 6), (4, 10)):
        p = triangle_poset(n)
        assert p.size == size
        for lo, hi in p.covers:
            assert p.ranks[hi] == p.ranks[lo] + 1


def test_poset_validation():
    with pytest.raises(PosetError):
        Poset(2, [(1, 0)])  # covers must go upward
    with pytest.raises(PosetError):
        Poset(2, [(0, 0)])
    with pytest.raises(PosetError):
        Poset(3, [(0, 1), (1, 2), (0, 2)])  # redundant cover
    with pytest.raises(PosetError):
        Poset(2, [(0, 5)])
    with pytest.raises(PosetError):
        # rc embedding must move by one column per cover
        Poset(2, [(0, 1)], rc=[(0, 0), (5, 1)])


@pytest.mark.parametrize(
    "size, covers",
    [(2.5, []), (True, []), (2, [(0.0, 1.0)]), (2, [(0, True)])],
)
def test_size_and_cover_indices_must_be_ints(size, covers):
    with pytest.raises(PosetError, match="integer"):
        Poset(size, covers)


@pytest.mark.parametrize(
    "rc",
    [
        [(0.5, 0), (1.7, 1.2)],  # int() would truncate these to (0, 0), (1, 1)
        [("0", 0), (1, 1)],
        [(True, 0), (1, 1)],
    ],
)
def test_rc_positions_must_be_ints(rc):
    with pytest.raises(PosetError, match="rc positions must be pairs of integers"):
        Poset(2, [(0, 1)], rc=rc)


@pytest.mark.parametrize(
    "size, covers, rc, message",
    [
        (3, [(0, 1, 2)], None, "cover (0, 1, 2) must be a pair of integer indices"),
        (3, [5], None, "cover 5 must be a pair of integer indices"),
        (2, [(0, 1)], [(0, 0), 5], "rc positions must be pairs of integers"),
        (2, [(0, 1)], [(0, 0), (1, 1, 1)], "rc positions must be pairs of integers"),
    ],
)
def test_a_cover_or_rc_position_that_is_not_a_pair_is_a_poset_error(size, covers, rc, message):
    with pytest.raises(PosetError) as info:
        Poset(size, covers, rc=rc)
    assert str(info.value) == message


@pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
def test_rectangle_shape_is_derived(a, b):
    assert rectangle_poset(a, b).rectangle_shape == (a, b)


def test_hand_built_rectangle_gets_its_shape():
    r = rectangle_poset(2, 3)
    assert Poset(r.size, r.covers, labels=r.labels, rc=r.rc).rectangle_shape == (2, 3)


def _off_rectangles():
    r = rectangle_poset(2, 3)
    return [triangle_poset(n) for n in range(1, 5)] + [
        Poset(r.size, r.covers, labels=[str(lab) for lab in r.labels], rc=r.rc),
        Poset(r.size, r.covers, labels=r.labels),  # no rc
        Poset(1, [], labels=[(1.5, 1)]),
        Poset(1, [], labels=[(True, True)]),
        Poset(1, [], labels=[(10**9, 10**9)]),  # the size rules it out unbuilt
        Poset(0, []),
    ]


@pytest.mark.parametrize("poset", _off_rectangles(), ids=lambda p: repr(p.labels[-1:]))
def test_rectangle_shape_is_none_off_rectangles(poset):
    assert poset.rectangle_shape is None


def test_heights_and_extremes():
    p = rectangle_poset(2, 3)
    assert p.minimal_elements == (0,)
    assert p.maximal_elements == (5,)
    assert p.heights == p.ranks


def test_antichain_and_filter_predicates():
    p = rectangle_poset(2, 2)
    assert p.is_antichain((X, Y))
    assert not p.is_antichain((W, Z))
    assert p.is_filter((Z,))
    assert p.is_filter((X, Y, Z))
    assert not p.is_filter((W,))


def test_order_ideal_validation():
    p = rectangle_poset(2, 2)
    ideal = OrderIdeal(p, [W, X])
    assert ideal.indices == (W, X)
    assert X in ideal and Z not in ideal
    with pytest.raises(PosetError):
        OrderIdeal(p, [X])  # not down-closed
    assert OrderIdeal.from_mask(p, 0b0011) == ideal


def test_order_ideal_reads_as_a_set_of_labelled_elements():
    p = rectangle_poset(2, 3)
    ideal = OrderIdeal(p, [0, 1, 2])
    assert ideal.members() == ((1, 1), (2, 1), (1, 2))
    assert (len(ideal), list(ideal), repr(ideal)) == (3, [0, 1, 2], "{(1, 1),(2, 1),(1, 2)}")
    assert (len(OrderIdeal(p, [])), repr(OrderIdeal(p, []))) == (0, "{}")
    assert len(p) == 6


@pytest.mark.parametrize("mask", [1 << 4, 1 << 10, 0b0011 | 1 << 7, -1, -4])
def test_masks_with_bits_outside_the_poset_are_refused(mask):
    p = rectangle_poset(2, 2)
    message = f"mask {mask} has bits outside the poset's 4 elements"
    with pytest.raises(PosetError, match=f"^{message}$"):
        OrderIdeal.from_mask(p, mask)
    assert not p.is_ideal_mask(mask)
    assert p.is_ideal_mask(0b1111)  # the whole poset: the top in-range mask


def test_complement_filter():
    p = rectangle_poset(2, 2)
    assert set(complement_filter(OrderIdeal(p, [W, X]))) == {Y, Z}
    assert set(complement_filter(OrderIdeal(p, []))) == {W, X, Y, Z}


def test_toggle_ideal_is_gated():
    p = rectangle_poset(2, 2)
    ideal = OrderIdeal(p, [W, X])
    assert toggle_ideal(ideal, Y) == OrderIdeal(p, [W, X, Y])
    assert toggle_ideal(ideal, X) == OrderIdeal(p, [W])
    assert toggle_ideal(ideal, Z) == ideal  # Y missing below
    assert toggle_ideal(ideal, W) == ideal  # X present above


def test_rowmotion_on_the_middle_antichain():
    p = rectangle_poset(2, 2)
    assert rowmotion_ideal(OrderIdeal(p, [W, X])) == OrderIdeal(p, [W, Y])
    assert rowmotion_ideal(OrderIdeal(p, [W, Y])) == OrderIdeal(p, [W, X])


def test_promotion_on_the_middle_antichain():
    p = rectangle_poset(2, 2)
    assert promotion_ideal(OrderIdeal(p, [W, X])) == OrderIdeal(p, [])


def test_rowmotion_orbit_structure_2x2():
    p = rectangle_poset(2, 2)
    parts = orbit_partition(rowmotion_ideal, enumerate_ideals(p))
    assert sorted(rec.period for rec in parts) == [2, 4]


def test_power_identities_small_grids():
    for a, b in ((1, 1), (2, 2), (2, 3), (3, 3)):
        p = rectangle_poset(a, b)
        for step in (rowmotion_ideal, promotion_ideal):
            for ideal in enumerate_ideals(p):
                cur = ideal
                for _ in range(a + b):
                    cur = step(cur)
                assert cur == ideal


def test_file_toggle_ideal():
    p = rectangle_poset(2, 2)
    ideal = OrderIdeal(p, [W])
    assert file_toggle_ideal(ideal, 1) == OrderIdeal(p, [W, X])
    assert file_toggle_ideal(ideal, 3) == OrderIdeal(p, [W, Y])


def test_filter_minimals_and_down_closure():
    p = rectangle_poset(2, 3)
    # complement of {(1,1),(2,1)} is generated by (1,2) alone
    assert set(filter_minimals(p, complement_filter(OrderIdeal(p, [0, 1])))) == {2}
    assert down_closure(p, (3,)) == OrderIdeal(p, [0, 1, 2, 3])
    assert down_closure(p, ()) == OrderIdeal(p, [])


def test_antichain_step_on_singleton():
    p = rectangle_poset(2, 2)
    assert set(brouwer_schrijver(p, (Y,))) == {X}
    assert set(brouwer_schrijver(p, (X,))) == {Y}


def test_complementation_route_equals_rowmotion():
    for poset in (rectangle_poset(2, 3), rectangle_poset(3, 3), triangle_poset(3)):
        for ideal in enumerate_ideals(poset):
            assert rowmotion_by_complementation(ideal) == rowmotion_ideal(ideal)


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(rectangle_poset(2, 2))) == 6
    assert len(enumerate_ideals(rectangle_poset(4, 4))) == 70


def test_enumeration_refuses_too_many_ideals():
    with pytest.raises(PosetError, match=r"\[15\]x\[15\] has 155117520 order ideals"):
        enumerate_ideals(rectangle_poset(15, 15))
    with pytest.raises(PosetError, match="more than 1000000 order ideals"):
        enumerate_ideals(Poset(25, []))


def test_ideal_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(posets, "MAX_IDEALS", 70)
    assert len(enumerate_ideals(rectangle_poset(4, 4))) == 70
    with pytest.raises(PosetError):
        enumerate_ideals(rectangle_poset(4, 5))
    assert len(enumerate_ideals(Poset(6, []))) == 64
    with pytest.raises(PosetError):
        enumerate_ideals(Poset(7, []))


def test_index_of_unknown_label():
    p = rectangle_poset(2, 2)
    with pytest.raises(PosetError):
        p.index_of((9, 9))


def test_rc_posets_skip_the_strict_down_masks():
    poset = rectangle_poset(1, 40000)
    assert "strict_down_masks" not in poset.__dict__
    # A redundant cover cannot climb one rank, so rc still refuses it.
    with pytest.raises(PosetError, match="one rank up"):
        Poset(3, [(0, 1), (1, 2), (0, 2)], rc=[(0, 0), (1, 1), (0, 2)])
