"""Semistandard tableaux, Gelfand-Tsetlin patterns, and the bridge to
piecewise-linear arrays.

A rectangular tableau with A rows, B columns, and entries at most n has
a Gelfand-Tsetlin pattern whose only unforced entries fill an A x (n-A)
rectangle; dividing them by B gives a point of the order polytope of
that rectangle poset.  Under this correspondence the i-th Bender-Knuth
involution acts as the i-th file toggle, so tableau promotion matches
piecewise-linear promotion.

A semistandard row weakly increases, so its entries at most m are a
prefix of the row, one bisection long: the pattern, the array and the
Bender-Knuth involutions read a row's counts that way.
"""

from bisect import bisect_left, bisect_right
from functools import lru_cache

from .dynamics import PL
from .posets import PosetError, _is_int, rectangle_poset
from .rational import Rat


# Largest max_entry a tableau file or a bridge shape may declare.  It
# bounds the work of one tableau action, linear in max_entry: a promotion
# makes max_entry - 1 Bender-Knuth passes, and an array has A(max_entry - A)
# elements for A rows.  The bridge suite runs about max_entry^2 of these
# per sample, so verify.MAX_BRIDGE_WORK bounds its shapes as well.
MAX_ENTRY = 20000
# Most slots tableau_to_pattern may build: n(n+1)/2 for max entry n.
MAX_PATTERN_SLOTS = 10**6
# Most elements tableau_to_array may build: A(n-A) for A rows, max entry n.
MAX_ARRAY_SIZE = 20000


class TableauError(ValueError):
    'A tableau or pattern failed validation.'


def _rows(rows, what):
    'rows as a tuple of tuples, or a TableauError when they are not sequences.'
    try:
        return tuple(map(tuple, rows))
    except TypeError:
        raise TableauError(f"{what} rows must be sequences") from None


class Tableau:
    'Semistandard tableau: rows weakly increase, columns strictly increase.'

    __slots__ = ("rows", "max_entry")

    def __init__(self, rows, max_entry):
        if not _is_int(max_entry):
            raise TableauError(f"max entry must be an integer, got {max_entry!r}")
        rows = _rows(rows, "tableau")
        if not all(_is_int(v) for row in rows for v in row):
            raise TableauError("tableau entries must be integers")
        if not rows or not all(rows):
            raise TableauError("tableau needs at least one nonempty row")
        widths = [len(row) for row in rows]
        if any(a < b for a, b in zip(widths, widths[1:])):
            raise TableauError("row lengths must weakly decrease")
        for r, row in enumerate(rows):
            for c, v in enumerate(row):
                if not 1 <= v <= max_entry:
                    raise TableauError(
                        f"entry {v} at row {r + 1} outside 1..{max_entry}"
                    )
                if c + 1 < len(row) and row[c + 1] < v:
                    raise TableauError(f"row {r + 1} is not weakly increasing")
                if r + 1 < len(rows) and c < widths[r + 1] and rows[r + 1][c] <= v:
                    raise TableauError(f"column {c + 1} is not strictly increasing")
        self.rows = rows
        self.max_entry = max_entry

    @classmethod
    def _trusted(cls, rows, max_entry):
        'A tableau from rows of int tuples known to be semistandard, unchecked.'
        new = object.__new__(cls)
        new.rows = rows
        new.max_entry = max_entry
        return new

    @property
    def shape(self):
        return tuple(len(row) for row in self.rows)

    def is_rectangular(self):
        return len(set(self.shape)) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.rows == other.rows
            and self.max_entry == other.max_entry
        )

    def __hash__(self):
        return hash((self.rows, self.max_entry))

    def __repr__(self):
        return f"Tableau({list(map(list, self.rows))}, max_entry={self.max_entry})"


class GtPattern:
    """Gelfand-Tsetlin pattern: n weakly decreasing integer rows of
    lengths n, n-1, ..., 1 where consecutive rows interlace."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = _rows(rows, "pattern")
        if not all(_is_int(v) for row in rows for v in row):
            raise TableauError("pattern entries must be integers")
        n = len(rows)
        if not n or any(len(row) != n - i for i, row in enumerate(rows)):
            raise TableauError("pattern rows must have lengths n, n-1, ..., 1")
        for i, row in enumerate(rows):
            if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
                raise TableauError(f"pattern row {i + 1} is not weakly decreasing")
            if any(v < 0 for v in row):
                raise TableauError("pattern entries must be nonnegative")
            if i + 1 < n:
                below = rows[i + 1]
                for k, v in enumerate(below):
                    if not row[k + 1] <= v <= row[k]:
                        raise TableauError(
                            f"rows {i + 1} and {i + 2} do not interlace at slot {k + 1}"
                        )
        self.rows = rows

    @property
    def size(self):
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, GtPattern) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"GtPattern({list(map(list, self.rows))})"


def tableau_to_pattern(tableau):
    """Pattern whose i-th row is the shape of the entries at most n+1-i.

    The top row is the full shape padded with zeros; the bottom row
    counts the 1s.
    """
    n = tableau.max_entry
    if n * (n + 1) // 2 > MAX_PATTERN_SLOTS:
        raise TableauError(
            f"the pattern of max entry {n} has {n * (n + 1) // 2} slots, "
            f"more than the limit of {MAX_PATTERN_SLOTS}"
        )
    rows = tableau.rows
    return GtPattern(
        [bisect_right(row, m) for row in rows[:m]] + [0] * (m - len(rows))
        for m in range(n, 0, -1)
    )


def pattern_to_tableau(pattern):
    """Inverse of tableau_to_pattern.

    The top row's nonzero slots are the row lengths, and row r holds m
    as many times as the shape of the entries at most m grows at r from
    m - 1 to m.
    """
    n = pattern.size
    rows = []
    for r in range(n - pattern.rows[0].count(0)):
        row, below = [], 0
        for m in range(r + 1, n + 1):
            count = pattern.rows[n - m][r]
            row += [m] * (count - below)
            below = count
        rows.append(row)
    return Tableau(rows, n)


def rectangle_type(pattern):
    """(A, B) when the pattern comes from a rectangular tableau.

    Every slot (i, k) with i + k <= A holds B and every slot with
    k >= A holds 0 (rows are 1-indexed, slots 0-indexed); only an
    A x (n - A) rectangle of slots is free.  Interlacing carries the
    top row's zeros down, so only the slots of B need a check.
    """
    top = pattern.rows[0]
    a = sum(1 for v in top if v != 0)
    n = pattern.size
    if not 1 <= a < n:
        raise TableauError("pattern is not of rectangular type")
    b = top[0]
    for i, row in enumerate(pattern.rows, start=1):
        for k, v in enumerate(row):
            if i + k <= a and v != b:
                raise TableauError("pattern is not of rectangular type")
    return a, b


def pattern_to_array(pattern):
    """Free pattern slots, scaled by the column count, as a point of the
    order polytope of the rectangle poset [A] x [n-A].

    Element (i, j) of the rectangle reads slot A - i of pattern row
    n + 1 - A - j + i; files of the rectangle then match the pattern's
    diagonals so that the i-th Bender-Knuth involution becomes the i-th
    file toggle.
    """
    a, b = rectangle_type(pattern)
    n = pattern.size
    poset = rectangle_poset(a, n - a)
    values = [None] * poset.size
    for x in range(poset.size):
        i, j = poset.labels[x]
        values[x] = Rat(pattern.rows[n - a - j + i][a - i], b)
    return PL.array(poset, values)


def array_to_pattern(f, columns):
    'Inverse of pattern_to_array for an array on [A] x [n-A].'
    shape = f.poset.rectangle_shape
    if shape is None:
        raise PosetError("array is not on a rectangle poset")
    if not (_is_int(columns) and columns > 0):
        raise TableauError(f"column count must be a positive integer, got {columns!r}")
    a, width = shape
    n = a + width
    b = columns
    rows = [
        [b if i + k <= a else 0 for k in range(n + 1 - i)]
        for i in range(1, n + 1)
    ]
    for x in range(f.poset.size):
        i, j = f.poset.labels[x]
        scaled = f.values[x] * b
        if scaled.denominator != 1:
            raise TableauError(
                f"entry {f.values[x]} at {(i, j)} times {b} is not an integer"
            )
        rows[n - a - j + i][a - i] = int(scaled)
    return GtPattern(rows)


@lru_cache(maxsize=1)
def _rectangle(a, b):
    """rectangle_poset(a, b), kept for the next call of the same shape:
    the bridge suite maps each tableau and its neighbours one shape at a
    time, and arrays on one poset object compare without a poset compare.
    """
    return rectangle_poset(a, b)


def tableau_to_array(tableau):
    """pattern_to_array(tableau_to_pattern(tableau)), read from the rows.

    For A rows of B entries at most n, element (i, j) of [A] x [n-A] is
    the number of entries at most A + j - i in row A + 1 - i, over B;
    the pattern itself would hold n(n+1)/2 slots.
    """
    if not tableau.is_rectangular():
        raise TableauError("only rectangular tableaux map to arrays")
    rows, n = tableau.rows, tableau.max_entry
    a, b = len(rows), len(rows[0])
    if a >= n:
        raise TableauError(
            f"the array on [{a}]x[{n - a}] is empty: max_entry {n} must exceed the row count {a}"
        )
    if a * (n - a) > MAX_ARRAY_SIZE:
        raise TableauError(
            f"the array on [{a}]x[{n - a}] has {a * (n - a)} elements, "
            f"more than the limit of {MAX_ARRAY_SIZE}"
        )
    poset = _rectangle(a, n - a)
    return PL.array(poset, [Rat(bisect_right(rows[a - i], a + j - i), b) for i, j in poset.labels])


def array_to_tableau(f, columns):
    'Composite of array_to_pattern and pattern_to_tableau.'
    return pattern_to_tableau(array_to_pattern(f, columns))


def bender_knuth(tableau, index):
    """The index-th Bender-Knuth involution.

    An entry equal to index is locked when index + 1 sits directly
    below it; an entry equal to index + 1 is locked when index sits
    directly above.  In each row the free entries form a consecutive
    block of s copies of index followed by t copies of index + 1, which
    the involution rewrites as t copies followed by s copies.  Rows
    weakly increase, so the index and index + 1 entries of a row are
    one bisect range, its locked copies of index a prefix and its
    locked copies of index + 1 a suffix.  Only rows with s != t change;
    the result is semistandard by construction and is not revalidated.
    """
    i = index
    if not (_is_int(i) and 1 <= i < tableau.max_entry):
        raise TableauError(f"involution index {i!r} outside 1..{tableau.max_entry - 1}")
    rows = tableau.rows
    out = list(rows)
    for r, row in enumerate(rows):
        lo = bisect_left(row, i)
        hi = bisect_right(row, i + 1, lo)
        if lo == hi:
            continue
        mid = bisect_right(row, i, lo, hi)
        start = max(lo, min(mid, bisect_right(rows[r + 1], i + 1))) if r + 1 < len(rows) else lo
        stop = min(hi, max(mid, bisect_left(rows[r - 1], i))) if r else hi
        if mid - start != stop - mid:
            out[r] = row[:start] + (i,) * (stop - mid) + (i + 1,) * (mid - start) + row[stop:]
    return Tableau._trusted(tuple(out), tableau.max_entry)


def tableau_promotion(tableau):
    'Composite of the Bender-Knuth involutions, lowest index first.'
    out = tableau
    for i in range(1, tableau.max_entry):
        out = bender_knuth(out, i)
    return out
