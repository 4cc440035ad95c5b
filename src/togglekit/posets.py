"""Finite posets, order ideals, and combinatorial toggle dynamics.

Elements carry indices 0..size-1 in a fixed linear extension; for a
rectangle [a]x[b] that order is by rank i+j-2, then by column j-i.  All
vector input and output follows this indexing.  Order ideals live as
bitmasks so exhaustive sweeps over J(P) stay cheap.

Sweep tables.  Once J(P) has been enumerated for a poset, every ideal
sweep (rowmotion_ideal, promotion_ideal, file_toggle_ideal) passes
pybitops.sweep a table of that toggle order over J(P), which records
each image the first time its mask is swept.  Tables are keyed by the
contents of the order tuple, never by the name of a map, so a changed
order gets a table of its own.  A table is valid only for the poset's
own cover masks.  The kernel's plain toggle loop is the oracle: it
answers misses, masks outside J(P), and every sweep of a poset whose
J(P) was never enumerated, which builds no table.

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


class RcEmbedding:
    """Rank/column placement of the elements in the plane.

    positions[i] is an integer (column, rank) pair; every cover relation
    must climb exactly one rank while moving one column left or right.
    A file is the set of elements sharing a column.
    """

    __slots__ = ("positions",)

    def __init__(self, positions):
        positions = tuple((int(c), int(r)) for c, r in positions)
        self.positions = positions

    def __eq__(self, other):
        return isinstance(other, RcEmbedding) and self.positions == other.positions

    def __hash__(self):
        return hash(self.positions)

    def __repr__(self):
        return f"RcEmbedding({list(self.positions)})"


class Poset:
    """Finite poset given by an irredundant list of cover relations.

    covers are (lower, upper) index pairs.  A cover already implied by
    transitivity is rejected rather than repaired, and the index order
    must be a linear extension (every cover goes from a smaller index to
    a larger one); constructors in this module arrange that for you.
    """

    def __init__(self, size, covers, labels=None, rc=None, rectangle_shape=None):
        size = int(size)
        if size < 0:
            raise PosetError(f"negative size {size}")
        self.size = size
        seen = set()
        for pair in covers:
            lo, hi = pair
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
            labels = tuple(labels)
            if len(labels) != size:
                raise PosetError(f"{len(labels)} labels for {size} elements")
            if len(set(labels)) != size:
                raise PosetError("labels must be distinct")
        self.labels = labels
        if rc is not None and not isinstance(rc, RcEmbedding):
            rc = RcEmbedding(rc)
        if rc is not None:
            if len(rc.positions) != size:
                raise PosetError(f"{len(rc.positions)} rc positions for {size} elements")
            for lo, hi in self.covers:
                dc = rc.positions[hi][0] - rc.positions[lo][0]
                dr = rc.positions[hi][1] - rc.positions[lo][1]
                if dr != 1 or dc not in (1, -1):
                    raise PosetError(
                        f"cover {self.labels[lo]} < {self.labels[hi]} moves by "
                        f"({dc},{dr}); rc covers must move one rank up and one column sideways"
                    )
        self.rc = rc
        self.rectangle_shape = rectangle_shape
        self._check_irredundant()
        self._ideal_masks = None  # J(P) sorted, once enumerated
        self._sweep_tables = {}  # toggle order tuple -> (masks, images)
        # The last (order, table) served: repeated sweeps of one order skip
        # hashing the order tuple.
        self._last_table = (None, None)

    def _check_irredundant(self):
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
        base = min((r for _, r in self.rc.positions), default=0)
        return tuple(r - base for _, r in self.rc.positions)

    @cached_property
    def files(self):
        """Tuple of files, leftmost first; each file is a tuple of indices.

        Only rc-embedded posets have files.
        """
        if self.rc is None:
            raise PosetError("poset has no rc embedding, so no files")
        cols = sorted({c for c, _ in self.rc.positions})
        by_col = {c: [] for c in cols}
        for i, (c, _) in enumerate(self.rc.positions):
            by_col[c].append(i)
        return tuple(tuple(by_col[c]) for c in cols)

    def file_members(self, index):
        'Elements of the index-th file, counting from 1 at the left.'
        files = self.files
        if not 1 <= index <= len(files):
            raise PosetError(f"file index {index} outside 1..{len(files)}")
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
    def label_index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label):
        try:
            return self.label_index[label]
        except KeyError:
            raise PosetError(f"no element labelled {label!r}") from None

    def sweep_table(self, order):
        """The (masks, images) sweep table of a toggle order over J(P).

        None until J(P) has been enumerated; see the module docstring.
        """
        masks = self._ideal_masks
        if masks is None:
            return None
        last_order, table = self._last_table
        if order is not last_order:
            table = self._sweep_tables.get(order)
            if table is None:
                table = self._sweep_tables[order] = (masks, [None] * len(masks))
            self._last_table = (order, table)
        return table

    def leq(self, x, y):
        'True when x <= y in the order.'
        return x == y or bool(self.strict_down_masks[y] & (1 << x))

    def is_ideal_mask(self, mask):
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
    if a < 1 or b < 1:
        raise PosetError(f"rectangle sides must be positive, got {a}x{b}")
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
    return Poset(len(elems), covers, labels=elems, rc=rc, rectangle_shape=(a, b))


def triangle_poset(n):
    """Staircase poset of Gelfand-Tsetlin cells (i,j), 1<=i<=j<=n.

    Covers are (i,j-1) < (i,j) and (i+1,j+1) < (i,j) whenever both cells
    exist: a single chain for n=2, and in general a graded poset with
    bottom (n,n), top (1,n), and an rc embedding at column j.
    """
    if n < 1:
        raise PosetError(f"triangle order must be positive, got {n}")
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
    'Down-closed subset of a poset, stored as a bitmask over element indices.'

    __slots__ = ("poset", "mask")

    def __init__(self, poset, members):
        mask = 0
        for x in members:
            if not 0 <= x < poset.size:
                raise PosetError(f"element index {x} out of range")
            mask |= 1 << x
        if not poset.is_ideal_mask(mask):
            raise PosetError(f"{sorted_indices(mask)} is not down-closed")
        self.poset = poset
        self.mask = mask

    @classmethod
    def from_mask(cls, poset, mask, validate=True):
        self = object.__new__(cls)
        self.poset = poset
        self.mask = mask
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
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def toggle_ideal(ideal, x):
    """Toggle membership of element x if the result is still an ideal.

    Blocked (returns the input) when x has an upper cover inside or a
    lower cover outside.
    """
    poset = ideal.poset
    if not 0 <= x < poset.size:
        raise PosetError(f"element index {x} out of range")
    mask = pybitops.toggle(ideal.mask, poset.lower_masks[x], poset.upper_masks[x], 1 << x)
    return OrderIdeal.from_mask(poset, mask, validate=False)


def _sweep(ideal, order):
    poset = ideal.poset
    mask = pybitops.sweep(
        ideal.mask, order, poset.lower_masks, poset.upper_masks, poset.sweep_table(order)
    )
    return OrderIdeal.from_mask(poset, mask, validate=False)


def rowmotion_ideal(ideal):
    'Toggle every element once, top rank first.'
    return _sweep(ideal, ideal.poset.rowmotion_order)


def promotion_ideal(ideal):
    'Toggle every element once, sweeping files left to right (needs an rc embedding).'
    return _sweep(ideal, ideal.poset.promotion_order)


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
    """All of J(P) as bitmasks, each exactly once, deterministic order.

    Raises PosetError when J(P) has more than MAX_IDEALS members.
    """
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
    if poset._ideal_masks is None:
        poset._ideal_masks = sorted(masks)
    return masks


def enumerate_ideals(poset):
    'All of J(P) as OrderIdeal objects.'
    return [OrderIdeal.from_mask(poset, m, validate=False) for m in enumerate_ideal_masks(poset)]
