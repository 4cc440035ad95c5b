"""Bitset kernels for order ideals.

Order ideals are int bitmasks over element indices, and the toggle at x
flips bit x exactly when every lower cover of x is present and no upper
cover is.  Python ints put no limit on poset size.

A sweep can be answered from a table over J(P), the set of order ideals:
a pair (masks, images) of equal-length lists, where masks is J(P) sorted
ascending and images[k] is the image of masks[k] under one toggle order,
or None until masks[k] has been swept.  sweep() fills a slot the first
time its mask is swept, with the int object already held in masks, so a
filled table holds no ints of its own.  A table is valid only for the
toggle order and the lower/upper cover masks it was built for;
posets.Poset.sweep_table keys one per order by the order's contents.
The plain loop, _sweep_loop, is the oracle: it runs on every miss, on
masks that are not in the table, and whenever no table is given.
"""

from bisect import bisect_left


def enumerate_ideals(size, lower_masks, limit=None):
    """All down-closed masks, each exactly once, in a deterministic order.

    lower_masks[i] may only reference indices below i, i.e. the index
    order must be a linear extension (the Poset constructor arranges
    this before calling).  With a limit, the enumeration stops as soon
    as it holds more than limit masks and returns those, so a result
    longer than limit means J(P) is larger than limit.
    """
    masks = [0]
    for i in range(size):
        low = lower_masks[i]
        bit = 1 << i
        masks += [m | bit for m in masks if m & low == low]
        if limit is not None and len(masks) > limit:
            break
    return masks


def toggle(mask, low, up, bit):
    'Toggle one element: flip its bit if the result is still an ideal.'
    if mask & low == low and mask & up == 0:
        return mask ^ bit
    return mask


def sweep(mask, order, lower_masks, upper_masks, table=None):
    """Apply toggles at the given element indices, in order.

    With a table for this order (see the module docstring), a mask in
    the table is swept once and its image read back after that.
    """
    if table is not None:
        masks, images = table
        k = bisect_left(masks, mask)
        if k < len(masks) and masks[k] == mask:
            image = images[k]
            if image is None:
                image = _sweep_loop(mask, order, lower_masks, upper_masks)
                j = bisect_left(masks, image)
                if j < len(masks) and masks[j] == image:
                    images[k] = image = masks[j]
            return image
    return _sweep_loop(mask, order, lower_masks, upper_masks)


def _sweep_loop(mask, order, lower_masks, upper_masks):
    for i in order:
        low = lower_masks[i]
        if mask & low == low and mask & upper_masks[i] == 0:
            mask ^= 1 << i
    return mask
