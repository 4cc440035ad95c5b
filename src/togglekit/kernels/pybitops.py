"""Bitset kernels for order ideals.

Order ideals are int bitmasks over element indices, and the toggle at x
flips bit x exactly when every lower cover of x is present and no upper
cover is.  Python ints put no limit on poset size.

A sweep runs on a table record (order, lower_masks, upper_masks, masks,
values, images): the toggle order, the cover masks it toggles by, J(P)
sorted ascending as masks, values[k] standing for masks[k] (posets
keeps its shared OrderIdeal there), and images[k] the value of the
image of masks[k], or None until masks[k] has been swept.  Given a
position, sweep() returns that position's slot: read back, or filled
once with values' entry at the image's position, found by bisection of
masks.  Given no position, it returns the image of a mask under the
first three fields alone, so a record of just (order, lower_masks,
upper_masks) will do.  The plain loop, _sweep_loop, is the oracle: it
fills every slot and answers every sweep given no position.
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


def sweep(table, position, mask=None):
    """The image under one table record's toggle order (module docstring).

    With a position in J(P), the slot of masks[position]: values' entry
    at the image's position.  With position None, the image mask of mask.
    """
    if position is None:
        return _sweep_loop(mask, table[0], table[1], table[2])
    image = table[5][position]
    if image is None:
        order, lows, ups, masks, values, images = table
        j = bisect_left(masks, _sweep_loop(masks[position], order, lows, ups))
        image = images[position] = values[j]
    return image


def _sweep_loop(mask, order, lower_masks, upper_masks):
    for i in order:
        low = lower_masks[i]
        if mask & low == low and mask & upper_masks[i] == 0:
            mask ^= 1 << i
    return mask
