"""Order and chain polytopes, transfer maps, and three-step rowmotion.

The order polytope holds the order-preserving maps into [0,1]; the chain
polytope holds the nonnegative maps whose maximal-chain sums stay at or
under 1.  The transfer map carries one to the other, sends vertices to
vertices, and conjugates rowmotion into a complement / transfer /
cumulate sandwich.  All three factors are written against a
ToggleAlgebra, so the same code yields the birational factorization when
handed the birational instance.
"""

from .dynamics import PL, toggle
from .rational import ONE, ZERO


def in_order_polytope(f):
    'Nonnegative at minimal elements, monotone along covers, at most 1 at maximal ones.'
    poset = f.poset
    if any(f[x] < ZERO for x in poset.minimal_elements):
        return False
    if any(f[x] > ONE for x in poset.maximal_elements):
        return False
    return all(f[lo] <= f[hi] for lo, hi in poset.covers)


def _chain_sums(g):
    """Best chain sum from the virtual bottom up to each element.

    One upward pass over the linear extension: the maximum over saturated
    chains ending at x of the sum of g along the chain.
    """
    lower = g.poset.lower_covers
    out = []
    for x, v in enumerate(g.values):
        out.append(v + max(out[y] for y in lower[x]) if lower[x] else v)
    return out


def in_chain_polytope(f):
    'Nonnegative everywhere, with every maximal-chain sum at most 1.'
    # On nonnegative values the largest chain sum is a maximal chain's.
    return all(v >= ZERO for v in f.values) and max(_chain_sums(f), default=ZERO) <= ONE


def complement_map(alg, f):
    'First factor: reflect every entry (1 - v piecewise-linearly, 1/v birationally).'
    return f._replace([alg.reflect(v) for v in f.values])


def transfer_map(alg, f):
    """Second factor: at each x, aggregate the drops to its lower covers.

    Piecewise-linearly this is the order-to-chain transfer, the minimum
    of f(x) - f(y) over lower covers y (against 0 at the virtual bottom);
    birationally the parallel sum of the quotients f(x)/f(y).
    """
    poset = f.poset
    out = []
    for x in range(poset.size):
        lows = poset.lower_covers[x]
        if lows:
            drops = [alg.difference(f[x], f[y]) for y in lows]
        else:
            drops = [alg.difference(f[x], alg.bottom_value)]
        out.append(alg.fold_upper(drops))
    return f._replace(out)


def cumulate_map(alg, f):
    """Third factor: downward accumulation from the virtual top.

    g(x) = f(x) combined with the aggregate of g over the upper covers
    (a best-downstream-sum piecewise-linearly, a full sum birationally).
    """
    poset = f.poset
    out = [None] * poset.size
    for x in reversed(range(poset.size)):
        ups = poset.upper_covers[x]
        agg = alg.fold_lower([out[y] for y in ups]) if ups else alg.bottom_value
        out[x] = alg.combine(f[x], agg)
    return f._replace(out)


def three_step(alg, f):
    'Transfer, cumulate, then complement: equals rowmotion under this algebra.'
    return complement_map(alg, cumulate_map(alg, transfer_map(alg, f)))


def transfer(f):
    'Order-to-chain transfer of a point of the order polytope.'
    if not in_order_polytope(f):
        raise ValueError("transfer expects a point of the order polytope")
    return transfer_map(PL, f)


def transfer_inverse(g):
    'Chain-to-order transfer: best chain sum from the virtual bottom up.'
    if not in_chain_polytope(g):
        raise ValueError("inverse transfer expects a point of the chain polytope")
    return g._replace(_chain_sums(g))


def pl_toggle(f, x):
    'Piecewise-linear toggle at one element (total on all rational arrays).'
    return toggle(PL, f, x)
