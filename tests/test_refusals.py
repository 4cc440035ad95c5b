"""Library refusals: each bad argument gets its module's one-line error.

Constructors and builders refuse arguments of the wrong kind with
PosetError, TableauError or ValueError, never a raw TypeError from deep
inside; and every refusal below names what was wrong in one line.
"""

import re

import pytest

from togglekit.birational import shear_stages
from togglekit.dynamics import (
    BIRATIONAL,
    PL,
    PArray,
    file_toggle,
    iterate,
    step_map,
    toggle,
    walk_program,
)
from togglekit.homomesy import homomesy_space_rank, orbit_average_vector
from togglekit.posets import (
    OrderIdeal,
    Poset,
    PosetError,
    down_closure,
    file_toggle_ideal,
    filter_minimals,
    rectangle_poset,
    toggle_ideal,
    triangle_poset,
)
from togglekit.sampling import (
    random_polytope_point,
    random_positive_array,
    random_rational,
    random_tableau,
    seeded_rng,
)
from togglekit.tableaux import (
    GtPattern,
    Tableau,
    TableauError,
    array_to_pattern,
    rectangle_type,
    tableau_to_array,
)

P = rectangle_poset(2, 2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Poset(3, 5), PosetError, "covers must be a sequence, got 5"),
        (lambda: Poset(2, [(0, 1)], labels=5), PosetError, "labels must be a sequence, got 5"),
        (lambda: Poset(2, [(0, 1)], rc=5), PosetError, "rc must be a sequence, got 5"),
        (lambda: OrderIdeal(P, 5), PosetError, "ideal members must be a sequence, got 5"),
        (lambda: Tableau(5, 3), TableauError, "tableau rows must be sequences"),
        (lambda: Tableau([5], 3), TableauError, "tableau rows must be sequences"),
        (lambda: GtPattern(5), TableauError, "pattern rows must be sequences"),
        (lambda: GtPattern([5]), TableauError, "pattern rows must be sequences"),
        (lambda: PArray(P, 5), ValueError, "array values must be a sequence of rationals"),
        (lambda: rectangle_poset(2.5, 2), PosetError,
         "rectangle sides must be positive integers, got 2.5x2"),
        (lambda: triangle_poset(2.5), PosetError,
         "triangle order must be a positive integer, got 2.5"),
        (lambda: rectangle_poset("a", 2), PosetError,
         "rectangle sides must be positive integers, got 'a'x2"),
    ],
    ids=["poset-covers", "poset-labels", "poset-rc", "ideal-members", "tableau-rows",
         "tableau-row", "pattern-rows", "pattern-row", "array-values", "float-side",
         "float-order", "str-side"],
)
def test_malformed_arguments_get_one_line_errors_not_type_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


REFUSALS = [
    ("negative-size", lambda: Poset(-1, []), PosetError, "negative size -1"),
    ("duplicate-cover", lambda: Poset(2, [(0, 1), (0, 1)]), PosetError,
     "duplicate cover (0, 1)"),
    ("label-count", lambda: Poset(2, [], labels=["a"]), PosetError, "1 labels for 2 elements"),
    ("repeated-label", lambda: Poset(2, [], labels=["a", "a"]), PosetError,
     "labels must be distinct"),
    ("rc-count", lambda: Poset(2, [], rc=[(0, 0)]), PosetError,
     "1 rc positions for 2 elements"),
    ("no-files", lambda: Poset(2, [(0, 1)]).files, PosetError,
     "poset has no rc embedding, so no files"),
    ("file-index", lambda: P.file_members(4), PosetError, "file index 4 outside 1..3"),
    ("zero-side", lambda: rectangle_poset(0, 2), PosetError,
     "rectangle sides must be positive integers, got 0x2"),
    ("zero-order", lambda: triangle_poset(0), PosetError,
     "triangle order must be a positive integer, got 0"),
    ("mask-not-down-closed", lambda: OrderIdeal.from_mask(P, 1 << 3), PosetError,
     "(3,) is not down-closed"),
    ("toggle-index", lambda: toggle_ideal(OrderIdeal(P, []), 4), PosetError,
     "element index 4 out of range"),
    ("not-up-closed", lambda: filter_minimals(P, {0}), PosetError, "[0] is not up-closed"),
    ("not-an-antichain", lambda: down_closure(P, {0, 3}), PosetError,
     "[0, 3] is not an antichain"),
    ("array-toggle-index", lambda: toggle(PL, PL.array(P, [0] * 4), 4), PosetError,
     "element index 4 out of range"),
    ("unknown-map", lambda: step_map(PL, "reflection"), PosetError,
     "unknown map 'reflection'; pick rowmotion or promotion"),
    ("shear-without-rc", lambda: shear_stages(Poset(1, [])), PosetError,
     "recombination needs an rc embedding"),
    ("shear-off-diagonals", lambda: shear_stages(Poset(2, [], rc=[(0, 0), (1, 0)])), PosetError,
     "rc embedding is not diagonally graded"),
    ("too-few-entries", lambda: random_tableau(3, 2, 2, seeded_rng(1)), ValueError,
     "max entry 2 cannot fill 3 strictly increasing rows"),
    ("no-rows", lambda: Tableau([], 3), TableauError,
     "tableau needs at least one nonempty row"),
    ("empty-row", lambda: Tableau([[]], 3), TableauError,
     "tableau needs at least one nonempty row"),
    ("pattern-all-zero", lambda: rectangle_type(GtPattern([[0]])), TableauError,
     "pattern is not of rectangular type"),
    ("array-off-rectangles", lambda: array_to_pattern(PArray(triangle_poset(2), [0] * 3), 1),
     PosetError, "array is not on a rectangle poset"),
    ("unhashable-label", lambda: Poset(2, [], labels=[{}, 1]), PosetError,
     "labels must be hashable"),
    ("bool-toggle-index", lambda: toggle_ideal(OrderIdeal(P, []), True), PosetError,
     "element index True out of range"),
    ("float-toggle-index", lambda: toggle_ideal(OrderIdeal(P, []), 1.0), PosetError,
     "element index 1.0 out of range"),
    ("bool-array-toggle-index", lambda: toggle(PL, PL.array(P, [0] * 4), True), PosetError,
     "element index True out of range"),
    ("float-array-toggle-index", lambda: toggle(PL, PL.array(P, [0] * 4), 1.0), PosetError,
     "element index 1.0 out of range"),
    ("bool-file-index", lambda: P.file_members(True), PosetError,
     "file index True outside 1..3"),
    ("bool-file-toggle-index", lambda: file_toggle_ideal(OrderIdeal(P, []), True), PosetError,
     "file index True outside 1..3"),
    ("float-file-toggle-index", lambda: file_toggle(PL, PL.array(P, [0] * 4), 1.5), PosetError,
     "file index 1.5 outside 1..3"),
    ("ragged-tableau", lambda: tableau_to_array(Tableau([[1, 2], [2]], 3)), TableauError,
     "only rectangular tableaux map to arrays"),
    ("zero-low-draw", lambda: random_rational(seeded_rng(1), 0, 5), ValueError,
     "positive draws need 1 <= low <= high, got low=0, high=5"),
    ("empty-range-draw", lambda: random_positive_array(PL, P, seeded_rng(1), 6, 5), ValueError,
     "positive draws need 1 <= low <= high, got low=6, high=5"),
    ("zero-denominator-point", lambda: random_polytope_point(P, seeded_rng(1), 0), ValueError,
     "polytope points need a denominator of at least 1, got 0"),
    ("birational-average-vector",
     lambda: orbit_average_vector(BIRATIONAL, "rowmotion", BIRATIONAL.array(P, [1] * 4)),
     ValueError, "orbit average vectors are piecewise-linear only, got birational"),
    ("birational-rank-audit",
     lambda: homomesy_space_rank(BIRATIONAL, "rowmotion", [BIRATIONAL.array(P, [1] * 4)] * 2, []),
     ValueError, "orbit average vectors are piecewise-linear only, got birational"),
    ("short-walk-times", lambda: iterate(PL, PL.array(P, [0] * 4), P.rowmotion_order, [1] * 3),
     PosetError, "3 sweep counts for 4 elements"),
    ("long-walk-times", lambda: walk_program(P, [(P.rowmotion_order, [1] * 5)]), PosetError,
     "5 sweep counts for 4 elements"),
    ("negative-walk-times",
     lambda: iterate(PL, PL.array(P, [0] * 4), P.rowmotion_order, [1, -1, 1, 1]), PosetError,
     "sweep counts must be nonnegative integers, got -1"),
    ("float-walk-times", lambda: walk_program(P, [(P.rowmotion_order, [1.5, 1, 1, 1])]),
     PosetError, "sweep counts must be nonnegative integers, got 1.5"),
    ("walk-order-element", lambda: iterate(PL, PL.array(P, [0] * 4), [0, 9], [1] * 4), PosetError,
     "element index 9 out of range"),
    ("declined-walk-times",
     lambda: iterate(BIRATIONAL, PArray(P, [0] * 4), P.rowmotion_order, [1] * 3), PosetError,
     "3 sweep counts for 4 elements"),
]


@pytest.mark.parametrize(
    "build, error, message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
)
def test_each_refusal_names_what_was_wrong(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error
