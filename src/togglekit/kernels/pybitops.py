"""Bitset kernels for order ideals.

Order ideals are int bitmasks over element indices, and the toggle at x
flips bit x exactly when every lower cover of x is present and no upper
cover is.  Python ints put no limit on poset size.

A sweep of a member of J(P), the set of order ideals, can be answered
from a table over J(P): a triple (masks, values, images), where masks is
J(P) sorted ascending, values[k] is what stands for masks[k] (posets
keeps its shared OrderIdeal there), and images[k] is the value of the
image of masks[k] under one toggle order, or None until masks[k] has
been swept.  Given a table and the mask's position, sweep() returns the
slot: read back, or swept once and filled with values' entry at the
image's position, found by bisection of masks.  A table is valid only
for the toggle order and the cover masks it was built for (posets._sweep
keys one per order by the order's contents).  The plain loop,
_sweep_loop, is the oracle: it fills every slot and answers every sweep
given no table.
"""

from bisect import bisect_left


def enumerate_ideals(size, lower_masks, limit=None):
    """All down-closed masks, each exactly once, in ascending order.

    lower_masks[i] may only reference indices below i, i.e. the index
    order must be a linear extension (the Poset constructor arranges
    this before calling).  Step i appends masks with bit i set, each
    larger than every earlier mask.  With a limit, the enumeration stops
    once it holds limit + 1 masks, so a result longer than limit means
    J(P) is larger than limit.
    """
    masks = [0]
    for i in range(size):
        low = lower_masks[i]
        bit = 1 << i
        for k in range(len(masks)):
            m = masks[k]
            if m & low == low:
                masks.append(m | bit)
                if limit is not None and len(masks) > limit:
                    return masks
    return masks


def toggle(mask, low, up, bit):
    'Toggle one element: flip its bit if the result is still an ideal.'
    if mask & low == low and mask & up == 0:
        return mask ^ bit
    return mask


def sweep(mask, order, lower_masks, upper_masks, table=None, position=None):
    """Apply toggles at the given element indices, in order: the image mask.

    With a table for this order (see the module docstring), position
    must be the mask's position in it, and the result is the image's
    slot instead: table[1]'s entry at the image's position, read back
    after the mask's first sweep.
    """
    if table is None:
        return _sweep_loop(mask, order, lower_masks, upper_masks)
    images = table[2]
    image = images[position]
    if image is None:
        j = bisect_left(table[0], _sweep_loop(mask, order, lower_masks, upper_masks))
        image = images[position] = table[1][j]
    return image


def _sweep_loop(mask, order, lower_masks, upper_masks):
    for i in order:
        low = lower_masks[i]
        if mask & low == low and mask & upper_masks[i] == 0:
            mask ^= 1 << i
    return mask
