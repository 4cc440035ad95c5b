"""Seeded random generators for test and verification inputs.

All samplers take an explicit random.Random so identical seeds give
identical streams; nothing here touches global random state.  The
rational samplers draw each int with rng.randrange(low, high + 1), which
is what rng.randint(low, high) calls, so their streams are randint's,
and take each value from _rat, one bounded memo of reduced Rats keyed by
(numerator, denominator): a draw in a small range builds each rational
once per process, and a repeated value is the same immutable object.
"""

import random
from functools import lru_cache

from .posets import enumerate_ideal_masks
from .rational import Rat
from .tableaux import Tableau


# The default draws need 421 entries (400 from 1..20 squared, 21 polytope
# values); the bound keeps wide ranges from growing the memo without end.
_rat = lru_cache(maxsize=1024)(Rat)


def seeded_rng(seed):
    'A private random stream for the given seed (None means entropy).'
    return random.Random(seed)


def _check_range(low, high):
    if not 1 <= low <= high:
        raise ValueError(f"positive draws need 1 <= low <= high, got low={low}, high={high}")


def random_rational(rng, low=1, high=20):
    'A positive rational with numerator and denominator in [low, high].'
    _check_range(low, high)
    return _rat(rng.randrange(low, high + 1), rng.randrange(low, high + 1))


def random_positive_array(alg, poset, rng, low=1, high=20):
    'An array of independent positive rationals on the poset, drawn as random_rational draws them.'
    _check_range(low, high)
    draw, stop = rng.randrange, high + 1
    return alg.array(
        poset, [_rat(draw(low, stop), draw(low, stop)) for _ in range(poset.size)]
    )


def random_polytope_point(poset, rng, denominator=20):
    """A point of the order polytope with the given denominator (at least 1).

    Entries are sampled in [0, 1] and then pushed up along covers in
    index order (the canonical linear extension), which keeps every
    value in [0, 1] and makes the result order-preserving.  The push
    runs on the numerators, which share the denominator, and each value
    then comes from the memo of reduced rationals.
    """
    if denominator < 1:
        raise ValueError(f"polytope points need a denominator of at least 1, got {denominator}")
    draw, stop = rng.randrange, denominator + 1
    nums = [draw(0, stop) for _ in range(poset.size)]
    for x, lows in enumerate(poset.lower_covers):
        for lo in lows:
            if nums[lo] > nums[x]:
                nums[x] = nums[lo]
    return [_rat(n, denominator) for n in nums]


def random_ideal(poset, rng):
    "A uniformly random order ideal: one of the poset's shared ideals of J(P)."
    enumerate_ideal_masks(poset)
    return rng.choice(poset._ideals)


def random_linear_extension(poset, rng):
    'A uniformly grown linear extension: repeatedly pick a random minimal element.'
    remaining_lower = [set(lows) for lows in poset.lower_covers]
    available = [x for x in range(poset.size) if not remaining_lower[x]]
    out = []
    while available:
        x = available.pop(rng.randrange(len(available)))
        out.append(x)
        for up in poset.upper_covers[x]:
            remaining_lower[up].discard(x)
            if not remaining_lower[up]:
                available.append(up)
    return out


def random_tableau(row_count, column_count, max_entry, rng):
    """A random semistandard rectangular tableau, built row by row.

    Each entry is drawn between the bound forced by its left and upper
    neighbours and the largest value that still leaves room for the
    strictly increasing column below it; that window is never empty, so
    every draw succeeds.
    """
    if max_entry < row_count:
        raise ValueError(
            f"max entry {max_entry} cannot fill {row_count} strictly increasing rows"
        )
    rows = []
    for r in range(row_count):
        row = []
        high = max_entry - (row_count - 1 - r)
        for c in range(column_count):
            low = 1 if r == 0 else rows[r - 1][c] + 1
            if c > 0:
                low = max(low, row[c - 1])
            row.append(rng.randint(low, high))
        rows.append(row)
    return Tableau(rows, max_entry)
