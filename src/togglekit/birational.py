"""Birational dynamics on positive rational arrays.

The subtraction-free counterparts of the piecewise-linear maps, plus the
identities special to rectangles: the recombination shear that turns
promotion into rowmotion, the antipodal reciprocity of rowmotion powers,
and the file quotient sequence that promotion cycles one step left.
Every function takes the algebra as an argument, so the piecewise-linear
(max-plus) forms of the same identities come out of the same code.
"""

from .dynamics import file_toggle, iterate, promotion, rowmotion
from .posets import PosetError


def _depths(poset):
    'Diagonal depth of each element: 0 on the bottom-left diagonal, up by 2 in rank+col.'
    if poset.rc is None:
        raise PosetError("recombination needs an rc embedding")
    diag = [r + c for c, r in poset.rc]
    base = min(diag)
    if any((d - base) % 2 for d in diag):
        raise PosetError("rc embedding is not diagonally graded")
    return [(d - base) // 2 for d in diag]


def shear_stages(poset):
    """The (order, times) stages of recombine and of recombine_inverse.

    Each reads an element after as many sweeps as its diagonal depth:
    recombine sweeps inverse promotion, recombine_inverse rowmotion.
    """
    depths = _depths(poset)
    return (poset.promotion_order[::-1], depths), (poset.rowmotion_order, depths)


def rowmotion_iterates(alg, f, count):
    'f, T(f), ..., T^count(f) under rowmotion; iterate 0 is f itself.'
    out = [f]
    for _ in range(count):
        out.append(rowmotion(alg, out[-1]))
    return out


def recombine(alg, f):
    """Shear the inverse-promotion iterates along diagonals.

    On [a]x[b] the entry of the result at (i,j) is the (i,j) entry of
    the (j-1)-th inverse-promotion iterate of f, so that recombining
    turns promotion into rowmotion:

        recombine(promotion(f)) == rowmotion(recombine(f))

    Any diagonally graded rc embedding is sheared, with the diagonal
    depth (rank+col)/2 for the column index; recombine_inverse undoes it
    there, but the conjugation is proved only for rectangles.
    """
    return iterate(alg, f, *shear_stages(f.poset)[0])


def recombine_inverse(alg, f):
    """Undo recombine: shear the rowmotion iterates along diagonals.

    Entry (i,j) of the result is the (i,j) entry of the (j-1)-th
    rowmotion iterate of f, so on a rectangle this shear turns rowmotion
    into promotion: recombine_inverse(rowmotion(f)) equals
    promotion(recombine_inverse(f)), and it carries the rowmotion orbit
    of f row-for-row onto the promotion orbit of its image.
    """
    return iterate(alg, f, *shear_stages(f.poset)[1])


def reciprocity_check(alg, f):
    """Antipodal reciprocity on a rectangle.

    For every cell (i,j) of f's poset [a]x[b], the (a+1-i, b+1-j) entry
    of the (a+b+1-i-j)-th rowmotion iterate must be the reflection of
    f(i,j) (its reciprocal birationally, 1 minus it piecewise-linearly).
    Returns (ok, violations); raises PosetError off rectangles.
    """
    poset = f.poset
    if poset.rectangle_shape is None:
        raise PosetError("reciprocity needs a rectangle shape AxB")
    a, b = poset.rectangle_shape
    # The entry at label (i, j) is read from rowmotion power i + j - 1.
    walk = iterate(alg, f, poset.rowmotion_order, [i + j - 1 for i, j in poset.labels])
    violations = []
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            power = a + b + 1 - i - j
            got = walk.at((a + 1 - i, b + 1 - j))
            want = alg.reflect(f.at((i, j)))
            if got != want:
                violations.append(
                    {
                        "cell": [i, j],
                        "power": power,
                        "got": str(got),
                        "expected": str(want),
                    }
                )
    return (not violations, violations)


def quotient_sequence(alg, f):
    """Per-file quotient profile (q_1, ..., q_n), n = number of files + 1.

    p_i is the combined value of file i (a product birationally, a sum
    piecewise-linearly) with empty guards p_0 = p_n at the algebra's
    neutral value; q_i = p_i / p_{i-1}.  The q's multiply out to the
    neutral value, file toggles swap adjacent q's, and promotion cycles
    the whole profile one step left.
    """
    files = f.poset.files
    neutral = alg.bottom_value
    profile = [neutral]
    for members in files:
        total = neutral
        for x in members:
            total = alg.combine(total, f[x])
        profile.append(total)
    profile.append(neutral)
    return tuple([alg.difference(profile[k + 1], profile[k]) for k in range(len(profile) - 1)])


def file_toggle_swap_check(alg, f, index):
    'Does toggling file i swap entries i and i+1 of the quotient profile?'
    before = list(quotient_sequence(alg, f))
    after = quotient_sequence(alg, file_toggle(alg, f, index))
    before[index - 1], before[index] = before[index], before[index - 1]
    return tuple(before) == after


def promotion_shift_check(alg, f):
    'Does promotion cycle the quotient profile one step to the left?'
    before = quotient_sequence(alg, f)
    after = quotient_sequence(alg, promotion(alg, f))
    return before[1:] + before[:1] == after
