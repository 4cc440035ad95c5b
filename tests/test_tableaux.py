import pytest

from togglekit import (
    PL,
    array_to_pattern,
    array_to_tableau,
    bender_knuth,
    file_toggle,
    pattern_to_array,
    pattern_to_tableau,
    promotion,
    tableau_promotion,
    tableau_to_array,
    tableau_to_pattern,
    tableaux,
)
from togglekit.posets import rectangle_poset
from togglekit.rational import Rat
from togglekit.sampling import random_tableau, seeded_rng
from togglekit.tableaux import GtPattern, Tableau, TableauError, rectangle_type
from togglekit.verify import BRIDGE_SHAPES, suite_bridge

# running example: 2x3 tableau with entries up to 5
T = Tableau([[1, 2, 2], [3, 5, 5]], 5)
T_PATTERN_ROWS = ((3, 3, 0, 0, 0), (3, 1, 0, 0), (3, 1, 0), (3, 0), (1,))
T_ARRAY = ("0", "1/3", "1/3", "1", "1/3", "1")  # canonical [2]x[3] order


def test_tableau_validation():
    Tableau([[1, 1, 2], [2, 3, 3]], 3)
    with pytest.raises(TableauError):
        Tableau([[2, 1]], 3)  # row must weakly increase
    with pytest.raises(TableauError):
        Tableau([[1, 1], [1, 2]], 3)  # column must strictly increase
    with pytest.raises(TableauError):
        Tableau([[1, 4]], 3)  # entry beyond the alphabet
    with pytest.raises(TableauError):
        Tableau([[0]], 3)
    with pytest.raises(TableauError):
        Tableau([[1, 1], [2, 2, 2]], 3)  # rows must weakly shorten


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Tableau([[1.7, 2.2]], 3), "tableau entries must be integers"),
        (lambda: Tableau([[1, 2]], 3.9), "max entry must be an integer, got 3.9"),
        (lambda: Tableau([[True, "2"]], 3), "tableau entries must be integers"),
        (lambda: bender_knuth(T, 1.9), "involution index 1.9 outside 1..4"),
        (lambda: GtPattern([[2.5, 0.3], [1.9]]), "pattern entries must be integers"),
        (lambda: array_to_pattern(tableau_to_array(T), 1.5), "column count must be .*, got 1.5"),
        (lambda: array_to_pattern(tableau_to_array(T), 0), "column count must be .*, got 0"),
    ],
    ids=["float-entries", "float-max-entry", "bool-and-str-entries", "float-index",
         "float-pattern", "float-columns", "zero-columns"],
)
def test_tableau_data_that_is_not_int_is_refused_not_truncated(build, message):
    with pytest.raises(TableauError, match=f"^{message}$"):
        build()


def test_tableau_shape():
    assert T.shape == (3, 3)
    assert T.is_rectangular()
    assert not Tableau([[1, 1], [2]], 2).is_rectangular()


def test_pattern_validation():
    GtPattern([(2, 1, 0), (2, 1), (1,)])
    with pytest.raises(TableauError):
        GtPattern([(1, 2), (1,)])  # rows must weakly decrease
    with pytest.raises(TableauError):
        GtPattern([(2, 1, 0), (2,)])  # lengths must step down by one
    with pytest.raises(TableauError):
        GtPattern([(1, 0), (2,)])  # interlacing violated
    with pytest.raises(TableauError):
        GtPattern([(1, -1), (1,)])


def test_pattern_of_the_running_tableau():
    assert tableau_to_pattern(T).rows == T_PATTERN_ROWS


def test_pattern_round_trips_to_tableau():
    assert pattern_to_tableau(tableau_to_pattern(T)) == T
    rng = seeded_rng(89)
    for rows, cols, n in ((2, 3, 5), (2, 2, 4), (1, 3, 4), (3, 3, 6)):
        for _ in range(10):
            t = random_tableau(rows, cols, n, rng)
            assert pattern_to_tableau(tableau_to_pattern(t)) == t


def test_rectangle_type():
    assert rectangle_type(tableau_to_pattern(T)) == (2, 3)
    skew = GtPattern([(2, 1, 0), (2, 1), (1,)])
    with pytest.raises(TableauError):
        rectangle_type(skew)


def test_array_of_the_running_tableau():
    f = tableau_to_array(T)
    assert f.poset.rectangle_shape == (2, 3)
    assert f.values == tuple(Rat(v) for v in T_ARRAY)


def test_extreme_tableaux_hit_the_polytope_corners():
    lowest = Tableau([[1, 1, 1], [2, 2, 2]], 5)
    assert set(tableau_to_array(lowest).values) == {Rat(1)}
    highest = Tableau([[4, 4, 4], [5, 5, 5]], 5)
    assert set(tableau_to_array(highest).values) == {Rat(0)}


def test_single_box_tableau():
    assert tableau_to_array(Tableau([[1]], 2)).values == (Rat(1),)
    assert tableau_to_array(Tableau([[2]], 2)).values == (Rat(0),)


def test_array_round_trips():
    assert array_to_tableau(tableau_to_array(T), 3) == T
    pattern = tableau_to_pattern(T)
    assert array_to_pattern(pattern_to_array(pattern), 3) == pattern


def test_array_to_pattern_rejects_non_lattice_values():
    poset = rectangle_poset(2, 3)
    f = PL.array(poset, ["0", "1/7", "1/3", "1", "1/3", "1"])
    with pytest.raises(TableauError):
        array_to_pattern(f, 3)


def test_bender_knuth_swaps_free_multiplicities():
    t = Tableau([[1, 1, 2]], 3)
    assert bender_knuth(t, 1) == Tableau([[1, 2, 2]], 3)
    assert bender_knuth(bender_knuth(t, 1), 1) == t


def test_bender_knuth_respects_locked_entries():
    t = Tableau([[1, 1], [2, 2]], 3)
    # both 1s sit directly above a 2: everything is locked
    assert bender_knuth(t, 1) == t


def test_bender_knuth_involutions_on_random_tableaux():
    rng = seeded_rng(97)
    for _ in range(20):
        t = random_tableau(2, 3, 5, rng)
        for i in range(1, 5):
            assert bender_knuth(bender_knuth(t, i), i) == t


def test_bender_knuth_index_bounds():
    with pytest.raises(TableauError):
        bender_knuth(T, 0)
    with pytest.raises(TableauError):
        bender_knuth(T, 5)


def test_bender_knuth_matches_file_toggles():
    rng = seeded_rng(101)
    for _ in range(10):
        t = random_tableau(2, 3, 5, rng)
        f = tableau_to_array(t)
        for i in range(1, 5):
            assert tableau_to_array(bender_knuth(t, i)) == file_toggle(PL, f, i)


def _bender_knuth_by_entry(tableau, i):
    'The involution entry by entry: lock each i and i + 1 by its neighbour, then swap.'
    rows = [list(row) for row in tableau.rows]
    for r, row in enumerate(rows):
        free = []
        for c, v in enumerate(row):
            if v == i:
                below = rows[r + 1][c] if r + 1 < len(rows) and c < len(rows[r + 1]) else None
                if below != i + 1:
                    free.append(c)
            elif v == i + 1:
                above = rows[r - 1][c] if r > 0 else None
                if above != i:
                    free.append(c)
        s = sum(1 for c in free if row[c] == i)
        for pos, c in enumerate(free):
            row[c] = i if pos < len(free) - s else i + 1
    return Tableau(rows, tableau.max_entry)


def test_bender_knuth_and_promotion_match_the_per_entry_oracle():
    rng = seeded_rng(109)
    for _ in range(300):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        n = rng.randint(max(rows, 2), rows + 5)
        t = random_tableau(rows, cols, n, rng)
        # Cutting rows to weakly decreasing widths keeps it semistandard.
        widths = sorted((rng.randint(1, cols) for _ in range(rows)), reverse=True)
        t = Tableau([row[:w] for row, w in zip(t.rows, widths)], n)
        expected = t
        for i in range(1, n):
            assert bender_knuth(t, i) == _bender_knuth_by_entry(t, i)
            expected = _bender_knuth_by_entry(expected, i)
        assert tableau_promotion(t) == expected


def test_promotion_of_a_long_row():
    # Each involution swaps one free i with one free i + 1: a fixed point.
    t = Tableau([range(1, 20001)], 20000)
    assert tableau_promotion(t) == t


def test_promotion_matches_the_array_route():
    rng = seeded_rng(103)
    for rows, cols, n in ((2, 3, 5), (2, 2, 4), (1, 3, 4)):
        for _ in range(10):
            t = random_tableau(rows, cols, n, rng)
            assert tableau_to_array(tableau_promotion(t)) == promotion(
                PL, tableau_to_array(t)
            )


def test_promotion_on_the_running_tableau():
    assert tableau_to_array(tableau_promotion(T)) == promotion(PL, tableau_to_array(T))


def test_promotion_has_order_max_entry():
    rng = seeded_rng(107)
    for rows, cols, n in ((2, 3, 5), (2, 2, 4), (1, 3, 4)):
        for _ in range(5):
            t = random_tableau(rows, cols, n, rng)
            cur = t
            for _ in range(n):
                cur = tableau_promotion(cur)
            assert cur == t


def test_tableau_equality_and_repr():
    assert T == Tableau([[1, 2, 2], [3, 5, 5]], 5)
    assert T != Tableau([[1, 2, 2], [3, 4, 5]], 5)
    assert "Tableau" in repr(T)
    assert "GtPattern" in repr(tableau_to_pattern(T))
    same = tableau_to_pattern(Tableau([[1, 2, 2], [3, 5, 5]], 5))
    assert len({tableau_to_pattern(T), same}) == 1


@pytest.mark.parametrize("shape", [*BRIDGE_SHAPES, (1, 1, 2), (3, 2, 7), (4, 3, 6), (2, 4, 9)])
def test_array_reads_the_rows_as_the_pattern_route_does(shape):
    rows, cols, max_entry = shape
    rng = seeded_rng(sum(shape))
    for _ in range(25):
        t = random_tableau(rows, cols, max_entry, rng)
        assert tableau_to_array(t) == pattern_to_array(tableau_to_pattern(t))


def test_array_refuses_a_tableau_with_as_many_rows_as_entries():
    with pytest.raises(TableauError, match=r"the array on \[2\]x\[0\] is empty"):
        tableau_to_array(Tableau([[1, 1], [2, 2]], 2))


def test_array_of_a_large_max_entry_skips_the_pattern():
    'The pattern of [[1]] with entries up to 20000 would hold 2*10^8 slots.'
    f = tableau_to_array(Tableau([[1]], 20000))
    assert f.poset.rectangle_shape == (1, 19999)
    assert set(f.values) == {Rat(1)}


def test_pattern_refuses_more_than_max_pattern_slots(monkeypatch):
    with pytest.raises(TableauError, match="1000405 slots"):
        tableau_to_pattern(Tableau([[1]], 1414))  # 1413 gives 998991 slots
    monkeypatch.setattr(tableaux, "MAX_PATTERN_SLOTS", 10)
    assert tableau_to_pattern(Tableau([[1]], 4)).size == 4  # 10 slots
    with pytest.raises(TableauError, match="more than the limit of 10"):
        tableau_to_pattern(Tableau([[1]], 5))


def test_array_refuses_more_than_max_array_size(monkeypatch):
    column = Tableau([[i] for i in range(1, 143)], 284)
    with pytest.raises(TableauError, match=r"\[142\]x\[142\] has 20164 elements"):
        tableau_to_array(column)
    monkeypatch.setattr(tableaux, "MAX_ARRAY_SIZE", 6)
    assert tableau_to_array(Tableau([[1, 1], [2, 2]], 5)).poset.size == 6
    with pytest.raises(TableauError, match="more than the limit of 6"):
        tableau_to_array(Tableau([[1, 1], [2, 2]], 6))


def test_bridge_suite_builds_one_poset_per_shape(monkeypatch):
    built = []

    def counting(a, b):
        built.append((a, b))
        return rectangle_poset(a, b)

    monkeypatch.setattr(tableaux, "rectangle_poset", counting)
    tableaux._rectangle.cache_clear()
    report = suite_bridge(shapes=((2, 3, 5), (1, 3, 4)), samples=5, seed=1)
    assert report["pass"] and built == [(2, 3), (1, 3)]
