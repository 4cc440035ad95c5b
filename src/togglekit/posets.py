"""Finite posets, order ideals, and combinatorial toggle dynamics.

Elements carry indices 0..size-1 in a fixed linear extension; for a
rectangle [a]x[b] that order is by rank i+j-2, then by column j-i.  All
vector input and output follows this indexing.  Order ideals live as
bitmasks so exhaustive sweeps over J(P) stay cheap.

Derived facts.  A poset is its size, covers, labels and rc, integer
(column, rank) pairs (see Poset); everything else is computed from those
on first use and kept.  rectangle_shape is (a, b) exactly when the poset
equals rectangle_poset(a, b), labels and rc included.  J(P) is
enumerated once per poset, in ascending order, and that one list is
shared by every caller, the sweep tables included.  The same
enumeration builds one shared OrderIdeal per mask, which carries its
position in J(P); enumerate_ideals and sampling.random_ideal hand out
those shared ideals.  Positions come only from that enumeration.

Sweep tables.  One rule: a shared ideal is swept through its order's
record and comes back shared, and every other ideal goes through the
kernel's plain toggle loop and comes back as a new OrderIdeal.  Every
ideal sweep (rowmotion_ideal, promotion_ideal, file_toggle_ideal) makes
one pybitops.sweep call, with a table record and the ideal's position
when it has one.  A record (order, lower_masks, upper_masks, masks,
ideals, images) holds the toggle order, the poset's cover masks, the
shared masks and ideals of J(P), and at each position the shared ideal
of that position's image, recorded the first time that ideal is swept;
the step returns that ideal as it is, with no lookup and no new
OrderIdeal.  Records are keyed by the contents of the order tuple, never
by the name of a map, so a changed order gets a record of its own.  The
loop is the oracle: it fills every slot.  toggle_ideal always returns a
new OrderIdeal.

A warm step is two frames: when the ideal is shared and the poset's
last record holds the very order tuple the map holds, rowmotion_ideal
and promotion_ideal pass that record and the position to the kernel
and return what it returns.  Every other step, file toggles included,
goes through _sweep, which finds a shared ideal's record by the order's
contents.
Poset's plain fields, the last record among them, are slots: once
cached_property has stored a fact through the instance __dict__, every
attribute found there reads about three times slower (Python 3.11), and
a warm step reads the last record on every call.  The derived facts,
both toggle orders included, stay cached_property values in __dict__,
so a class-level patch of Poset.rowmotion_order or promotion_order still
reaches every step.

Enumeration is refused, with a PosetError, when J(P) would hold more
than MAX_IDEALS order ideals: rectangles are checked against the exact
binomial before enumerating, other posets by a running count.
"""

from functools import cached_property, reduce
from math import comb

from .kernels import pybitops

# Most order ideals any enumeration of J(P) may produce.
MAX_IDEALS = 10**6


class PosetError(ValueError):
    'Bad poset data, or a set of the wrong kind fed to an order operation.'


def _is_int(value):
    'An int that is not a bool: the one rule for integer poset data.'
    return isinstance(value, int) and not isinstance(value, bool)


def _tuple(value, what):
    'value as a tuple, or a PosetError when it is not iterable.'
    try:
        return tuple(value)
    except TypeError:
        raise PosetError(f"{what} must be a sequence, got {value!r}") from None


def _int_pair(pair):
    'pair as a tuple of two ints, or None when it is not one.'
    try:
        a, b = pair
    except (TypeError, ValueError):
        return None
    return (a, b) if _is_int(a) and _is_int(b) else None


class Poset:
    """Finite poset given by an irredundant list of cover relations.

    covers are (lower, upper) index pairs.  A cover already implied by
    transitivity is rejected rather than repaired, and the index order
    must be a linear extension (every cover goes from a smaller index to
    a larger one); constructors in this module arrange that for you.

    rc, when given, places the elements in the plane: rc[i] is an integer
    (column, rank) pair, and every cover must climb exactly one rank
    while moving one column left or right.  A file is the set of
    elements sharing a column.
    """

    # The plain fields are slots; "__dict__" holds the cached_property facts.
    __slots__ = (
        "size",
        "covers",
        "labels",
        "rc",
        "_ideal_masks",
        "_ideals",
        "_sweep_tables",
        "_schedules",
        "_last_table",
        "__dict__",
    )

    def __init__(self, size, covers, labels=None, rc=None):
        if not _is_int(size):
            raise PosetError(f"poset size must be an integer, got {size!r}")
        if size < 0:
            raise PosetError(f"negative size {size}")
        self.size = size
        seen = set()
        for pair in _tuple(covers, "covers"):
            ints = _int_pair(pair)
            if ints is None:
                raise PosetError(f"cover {pair!r} must be a pair of integer indices")
            lo, hi = ints
            if not (0 <= lo < size and 0 <= hi < size):
                raise PosetError(f"cover {pair!r} out of range for size {size}")
            if lo == hi:
                raise PosetError(f"self-cover {pair!r}")
            if lo > hi:
                raise PosetError(
                    f"cover {pair!r} violates the canonical linear extension "
                    "(covers must go from smaller to larger index)"
                )
            if (lo, hi) in seen:
                raise PosetError(f"duplicate cover {pair!r}")
            seen.add((lo, hi))
        self.covers = tuple(sorted(seen))
        if labels is None:
            labels = tuple(str(i) for i in range(size))
        else:
            labels = _tuple(labels, "labels")
            if len(labels) != size:
                raise PosetError(f"{len(labels)} labels for {size} elements")
            try:
                distinct = len(set(labels))
            except TypeError:
                raise PosetError("labels must be hashable") from None
            if distinct != size:
                raise PosetError("labels must be distinct")
        self.labels = labels
        if rc is not None:
            rc = tuple([_int_pair(pair) for pair in _tuple(rc, "rc")])
            if None in rc:
                raise PosetError("rc positions must be pairs of integers")
            if len(rc) != size:
                raise PosetError(f"{len(rc)} rc positions for {size} elements")
            for lo, hi in self.covers:
                dc = rc[hi][0] - rc[lo][0]
                dr = rc[hi][1] - rc[lo][1]
                if dr != 1 or dc not in (1, -1):
                    raise PosetError(
                        f"cover {self.labels[lo]} < {self.labels[hi]} moves by "
                        f"({dc},{dr}); rc covers must move one rank up and one column sideways"
                    )
        self.rc = rc
        self._check_irredundant()
        self._ideal_masks = None  # J(P), ascending, once enumerated
        self._ideals = None  # one shared OrderIdeal per mask of _ideal_masks
        self._sweep_tables = {}  # toggle order contents -> its table record
        self._schedules = {}  # (order, times) -> dynamics._schedule's plan
        # The last table record served: a warm ideal step passes it to the
        # kernel with the ideal's position when its order is the map's own.
        self._last_table = (None,)

    def _check_irredundant(self):
        # With rc, the check in __init__ makes every cover climb exactly one
        # rank.  A cover lo < hi implied through some mid would have
        # lo < mid (at least one rank up) and mid covered by hi (one more),
        # so hi would sit two ranks above lo, not one: no rc cover is
        # redundant, and the O(size^2)-bit strict_down_masks is not built.
        if self.rc is not None:
            return
        below = self.strict_down_masks
        for lo, hi in self.covers:
            for mid in self.lower_covers[hi]:
                if mid != lo and below[mid] & (1 << lo):
                    raise PosetError(
                        f"redundant cover ({self.labels[lo]}, {self.labels[hi]}): "
                        f"already implied through {self.labels[mid]}"
                    )

    # -- derived structure ------------------------------------------------

    @cached_property
    def lower_covers(self):
        out = [[] for _ in range(self.size)]
        for lo, hi in self.covers:
            out[hi].append(lo)
        return tuple(tuple(sorted(c)) for c in out)

    @cached_property
    def upper_covers(self):
        out = [[] for _ in range(self.size)]
        for lo, hi in self.covers:
            out[lo].append(hi)
        return tuple(tuple(sorted(c)) for c in out)

    @cached_property
    def lower_masks(self):
        return tuple(reduce(lambda m, i: m | (1 << i), c, 0) for c in self.lower_covers)

    @cached_property
    def upper_masks(self):
        return tuple(reduce(lambda m, i: m | (1 << i), c, 0) for c in self.upper_covers)

    @cached_property
    def strict_down_masks(self):
        'strict_down_masks[x] has a bit for every y < x.'
        out = [0] * self.size
        for x in range(self.size):
            for lo in self.lower_covers[x]:
                out[x] |= out[lo] | (1 << lo)
        return tuple(out)

    @cached_property
    def heights(self):
        'Length of the longest chain strictly below each element.'
        out = [0] * self.size
        for x in range(self.size):
            for lo in self.lower_covers[x]:
                out[x] = max(out[x], out[lo] + 1)
        return tuple(out)

    @cached_property
    def ranks(self):
        'rc rank when embedded (shifted to start at 0), else chain height.'
        if self.rc is None:
            return self.heights
        base = min((r for _, r in self.rc), default=0)
        return tuple(r - base for _, r in self.rc)

    @cached_property
    def files(self):
        """Tuple of files, leftmost first; each file is a tuple of indices.

        Only rc-embedded posets have files.
        """
        if self.rc is None:
            raise PosetError("poset has no rc embedding, so no files")
        cols = sorted({c for c, _ in self.rc})
        by_col = {c: [] for c in cols}
        for i, (c, _) in enumerate(self.rc):
            by_col[c].append(i)
        return tuple(tuple(by_col[c]) for c in cols)

    def file_members(self, index):
        'Elements of the index-th file, counting from 1 at the left.'
        files = self.files
        if (type(index) is not int and not _is_int(index)) or not 1 <= index <= len(files):
            raise PosetError(f"file index {index!r} outside 1..{len(files)}")
        return files[index - 1]

    @cached_property
    def minimal_elements(self):
        return tuple(i for i in range(self.size) if not self.lower_covers[i])

    @cached_property
    def maximal_elements(self):
        return tuple(i for i in range(self.size) if not self.upper_covers[i])

    @cached_property
    def rowmotion_order(self):
        'Toggle order for rowmotion: rank descending, index ascending inside a rank.'
        return tuple(sorted(range(self.size), key=lambda i: (-self.ranks[i], i)))

    @cached_property
    def promotion_order(self):
        'Toggle order for promotion: files left to right, index ascending inside a file.'
        return tuple(i for members in self.files for i in members)

    @cached_property
    def rectangle_shape(self):
        """(a, b) when this poset equals rectangle_poset(a, b), else None.

        The candidate is the last label, (a, b) in the canonical order; it
        is built only when a*b equals the size.
        """
        shape = self.labels[-1] if self.labels else None
        if (
            isinstance(shape, tuple)
            and len(shape) == 2
            and all(type(side) is int and side >= 1 for side in shape)
            and shape[0] * shape[1] == self.size
            and self == rectangle_poset(*shape)
        ):
            return shape
        return None

    @cached_property
    def label_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label):
        try:
            return self.label_index[label]
        except KeyError:
            raise PosetError(f"no element labelled {label!r}") from None

    def leq(self, x, y):
        'True when x <= y in the order.'
        return x == y or bool(self.strict_down_masks[y] & (1 << x))

    def is_ideal_mask(self, mask):
        "True when mask is a down-closed set of this poset's elements."
        if mask < 0 or mask >> self.size:
            return False
        return all(
            mask & self.lower_masks[i] == self.lower_masks[i]
            for i in range(self.size)
            if mask & (1 << i)
        )

    def is_filter(self, members):
        members = set(members)
        return all(
            up in members for x in members for up in self.upper_covers[x]
        )

    def is_antichain(self, members):
        members = list(members)
        return not any(
            x != y and self.leq(x, y) for x in members for y in members
        )

    def __len__(self):
        return self.size

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Poset)
            and self.size == other.size
            and self.covers == other.covers
            and self.labels == other.labels
            and self.rc == other.rc
        )

    def __hash__(self):
        return hash((self.size, self.covers, self.labels, self.rc))

    def __repr__(self):
        return f"Poset(size={self.size}, covers={len(self.covers)})"


def rectangle_poset(a, b):
    """The product of chains [a]x[b]: elements (i,j), 1<=i<=a, 1<=j<=b.

    Canonical index order is rank i+j-2 ascending, then column j-i
    ascending, and the rc embedding places (i,j) at column j-i.
    """
    if not (_is_int(a) and _is_int(b) and a >= 1 and b >= 1):
        raise PosetError(f"rectangle sides must be positive integers, got {a!r}x{b!r}")
    elems = sorted(
        ((i, j) for i in range(1, a + 1) for j in range(1, b + 1)),
        key=lambda e: (e[0] + e[1], e[1] - e[0]),
    )
    index = {e: k for k, e in enumerate(elems)}
    covers = []
    for (i, j), k in index.items():
        if i < a:
            covers.append((k, index[(i + 1, j)]))
        if j < b:
            covers.append((k, index[(i, j + 1)]))
    rc = [(j - i, i + j - 2) for (i, j) in elems]
    return Poset(len(elems), covers, labels=elems, rc=rc)


def triangle_poset(n):
    """Staircase poset of Gelfand-Tsetlin cells (i,j), 1<=i<=j<=n.

    Covers are (i,j-1) < (i,j) and (i+1,j+1) < (i,j) whenever both cells
    exist: a single chain for n=2, and in general a graded poset with
    bottom (n,n), top (1,n), and an rc embedding at column j.
    """
    if not (_is_int(n) and n >= 1):
        raise PosetError(f"triangle order must be a positive integer, got {n!r}")
    elems = sorted(
        ((i, j) for i in range(1, n + 1) for j in range(i, n + 1)),
        key=lambda e: (e[1] - 2 * e[0], e[1]),
    )
    index = {e: k for k, e in enumerate(elems)}
    covers = []
    for (i, j), k in index.items():
        if (i, j + 1) in index:
            covers.append((k, index[(i, j + 1)]))
        if i >= 2:  # (i,j) covers-above (i+1,j+1) means (i-1,j-1) sits above (i,j)
            covers.append((k, index[(i - 1, j - 1)]))
    rc = [(j, j - 2 * i + n) for (i, j) in elems]
    return Poset(len(elems), covers, labels=elems, rc=rc)


class OrderIdeal:
    """Down-closed subset of a poset, stored as a bitmask over element indices.

    position is the index in J(P) of a shared ideal, else None; equality ignores it.
    """

    __slots__ = ("poset", "mask", "position")

    def __init__(self, poset, members):
        mask = 0
        for x in _tuple(members, "ideal members"):
            if not (_is_int(x) and 0 <= x < poset.size):
                raise PosetError(f"element index {x!r} out of range")
            mask |= 1 << x
        if not poset.is_ideal_mask(mask):
            raise PosetError(f"{sorted_indices(mask)} is not down-closed")
        self.poset = poset
        self.mask = mask
        self.position = None

    @classmethod
    def from_mask(cls, poset, mask, validate=True):
        self = object.__new__(cls)
        self.poset = poset
        self.mask = mask
        self.position = None
        if validate and (mask < 0 or mask >> poset.size):
            raise PosetError(f"mask {mask} has bits outside the poset's {poset.size} elements")
        if validate and not poset.is_ideal_mask(mask):
            raise PosetError(f"{sorted_indices(mask)} is not down-closed")
        return self

    @property
    def indices(self):
        return sorted_indices(self.mask)

    def members(self):
        'Member labels, in index order.'
        return tuple(self.poset.labels[i] for i in self.indices)

    def __contains__(self, x):
        return bool(self.mask & (1 << x))

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, OrderIdeal)
            and self.mask == other.mask
            and self.poset == other.poset
        )

    def __hash__(self):
        return hash((self.mask, self.poset.size))

    def __repr__(self):
        inside = ",".join(str(self.poset.labels[i]) for i in self.indices)
        return "{" + inside + "}"


def sorted_indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def toggle_ideal(ideal, x):
    """Toggle membership of element x if the result is still an ideal.

    Blocked (the new ideal equals the input) when x has an upper cover
    inside or a lower cover outside.
    """
    poset = ideal.poset
    # A plain int pays one type compare; bools and floats are refused.
    if (type(x) is not int and not _is_int(x)) or not 0 <= x < poset.size:
        raise PosetError(f"element index {x!r} out of range")
    mask = pybitops.toggle(ideal.mask, poset.lower_masks[x], poset.upper_masks[x], 1 << x)
    return OrderIdeal.from_mask(poset, mask, validate=False)


def _sweep(ideal, order):
    """One kernel sweep, by the module's one rule.

    A shared ideal is swept by its position through its order's record,
    made on first use and kept as the poset's last table, and its image
    comes back shared.  Any other ideal goes through the kernel loop and
    its image is a new ideal.
    """
    poset = ideal.poset
    k = ideal.position
    if k is None:
        mask = pybitops.sweep((order, poset.lower_masks, poset.upper_masks), None, ideal.mask)
        return OrderIdeal.from_mask(poset, mask, validate=False)
    table = poset._sweep_tables.get(order)
    if table is None:
        masks = poset._ideal_masks
        images = [None] * len(masks)
        table = (order, poset.lower_masks, poset.upper_masks, masks, poset._ideals, images)
        poset._sweep_tables[order] = table
    poset._last_table = table
    return pybitops.sweep(table, k)


def rowmotion_ideal(ideal):
    'Toggle every element once, top rank first.'
    order = ideal.poset.rowmotion_order
    table = ideal.poset._last_table
    if table[0] is order and ideal.position is not None:
        return pybitops.sweep(table, ideal.position)
    return _sweep(ideal, order)


def promotion_ideal(ideal):
    'Toggle every element once, sweeping files left to right (needs an rc embedding).'
    order = ideal.poset.promotion_order
    table = ideal.poset._last_table
    if table[0] is order and ideal.position is not None:
        return pybitops.sweep(table, ideal.position)
    return _sweep(ideal, order)


def file_toggle_ideal(ideal, index):
    'Toggle every element of one file (they are pairwise incomparable).'
    return _sweep(ideal, ideal.poset.file_members(index))


def complement_filter(ideal):
    'The complementary up-closed set, as a frozenset of indices.'
    return frozenset(range(ideal.poset.size)) - frozenset(ideal.indices)


def filter_minimals(poset, members):
    'Minimal elements of an up-closed set, as a frozenset (an antichain).'
    members = frozenset(members)
    if not poset.is_filter(members):
        raise PosetError(f"{sorted(members)} is not up-closed")
    return frozenset(
        x for x in members if not any(lo in members for lo in poset.lower_covers[x])
    )


def down_closure(poset, members):
    'Order ideal generated by an antichain.'
    members = frozenset(members)
    if not poset.is_antichain(members):
        raise PosetError(f"{sorted(members)} is not an antichain")
    mask = 0
    for x in members:
        mask |= poset.strict_down_masks[x] | (1 << x)
    return OrderIdeal.from_mask(poset, mask, validate=False)


def rowmotion_by_complementation(ideal):
    'Complement, take minimal elements, then down-close: equals rowmotion.'
    poset = ideal.poset
    return down_closure(poset, filter_minimals(poset, complement_filter(ideal)))


def brouwer_schrijver(poset, antichain):
    'Antichain map: down-close, complement, take minimal elements.'
    ideal = down_closure(poset, antichain)
    return filter_minimals(poset, complement_filter(ideal))


def enumerate_ideal_masks(poset):
    """All of J(P) as bitmasks, each exactly once, in ascending order.

    J(P) is enumerated once per poset; every later call returns the same
    list, which the sweep tables share, so callers must not change it.
    The first call also keeps, on the poset, one shared OrderIdeal per
    mask, holding its position.
    Those ideals refer back to the poset, so a poset dropped after
    enumeration is freed by the cycle collector rather than at once.
    Raises PosetError when J(P) has more than MAX_IDEALS members.
    """
    masks = poset._ideal_masks
    if masks is not None:
        return masks
    if poset.rectangle_shape is not None:
        a, b = poset.rectangle_shape
        count = comb(a + b, a)
        if count > MAX_IDEALS:
            raise PosetError(
                f"[{a}]x[{b}] has {count} order ideals, more than the limit of {MAX_IDEALS}"
            )
    masks = pybitops.enumerate_ideals(poset.size, poset.lower_masks, MAX_IDEALS)
    if len(masks) > MAX_IDEALS:
        raise PosetError(
            f"poset of size {poset.size} has more than {MAX_IDEALS} order ideals"
        )
    poset._ideals = ideals = [OrderIdeal.from_mask(poset, m, validate=False) for m in masks]
    for k, ideal in enumerate(ideals):
        ideal.position = k
    poset._ideal_masks = masks
    return masks


def enumerate_ideals(poset):
    'All of J(P) as OrderIdeal objects: a new list of the shared ideals.'
    enumerate_ideal_masks(poset)
    return list(poset._ideals)
