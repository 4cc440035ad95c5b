"""Bitset kernels for order ideals.

Order ideals are int bitmasks over element indices, and the toggle at x
flips bit x exactly when every lower cover of x is present and no upper
cover is.  Python ints put no limit on poset size.

A sweep can be answered from a table over J(P), the set of order ideals:
a triple (masks, index, images), where masks is J(P) sorted ascending,
index is a dict from each mask to its position in masks, and images[k]
is the position of the image of masks[k] under one toggle order, or
None until masks[k] has been swept.  sweep() reads the slot at the
position it is given, or finds it with one index lookup, and fills it
with the index's own int for the image, so a filled table holds no ints
of its own.  masks and index are shared by every table of one poset; a
table is valid only for the toggle order and the lower/upper cover
masks it was built for, and posets._sweep keys one per order by the
order's contents.  The plain loop, _sweep_loop, is the oracle:
it runs on every miss, on masks that are not in the table, and whenever
no table is given.
"""


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
    """Apply toggles at the given element indices, in order.

    With a table for this order (see the module docstring), a mask in
    the table is swept once and its image read back after that.
    position, when given, must be the mask's position in the table.
    """
    if table is not None:
        masks, index, images = table
        if position is None:
            position = index.get(mask)
        if position is not None:
            j = images[position]
            if j is None:
                image = _sweep_loop(mask, order, lower_masks, upper_masks)
                j = index.get(image)
                if j is None:
                    return image
                images[position] = j
            return masks[j]
    return _sweep_loop(mask, order, lower_masks, upper_masks)


def _sweep_loop(mask, order, lower_masks, upper_masks):
    for i in order:
        low = lower_masks[i]
        if mask & low == low and mask & upper_masks[i] == 0:
            mask ^= 1 << i
    return mask
