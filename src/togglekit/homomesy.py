"""Orbit statistics and homomesy checks.

A functional is a coefficient vector over the elements.  Piecewise-
linearly its orbit statistic is the average of the linear form along the
orbit; birationally the coefficients act as exponents and the statistic
is the orbit product of the monomial (constant 1 means 0-mesic in log
coordinates).  Homomesy = the statistic is the same on every orbit; the
constant is discovered from the first sample, never guessed.

Both statistics factor through one per-element aggregate of the orbit:
the average of a linear form is the linear form of the column means
(the orbit average of each element), and the orbit product of a
monomial is the monomial of the column products.  So each orbit is
walked once, its columns are aggregated once, and every functional is
read off the aggregate with one sparse dot product or monomial over its
support, the nonzero (index, coefficient) pairs it stores once.

The orbit walk and its aggregate are dynamics.orbit_aggregate's.
"""

from math import prod

from .dynamics import orbit_aggregate
from .posets import rectangle_poset
from .rational import ONE, Rat, ZERO, as_integer


def _linear(support, values):
    return sum((c * values[x] for x, c in support), ZERO)


def _monomial(support, values):
    return prod((values[x] ** as_integer(c) for x, c in support), start=ONE)


class Functional:
    'Named coefficient vector over the elements of a poset, with its support.'

    __slots__ = ("name", "coefficients", "support")

    def __init__(self, name, coefficients):
        self.name = name
        self.coefficients = tuple(Rat(c) for c in coefficients)
        self.support = tuple((x, c) for x, c in enumerate(self.coefficients) if c != ZERO)

    def linear_value(self, f):
        'Sum of coefficient * entry.'
        return _linear(self.support, f.values)

    def monomial_value(self, f):
        'Product of entry ** coefficient; needs integer coefficients.'
        return _monomial(self.support, f.values)

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and self.name == other.name
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.name, self.coefficients))

    def __repr__(self):
        return f"Functional({self.name!r})"


def pair_functional(a, b, i, j):
    'Entry at (i,j) plus the entry at the antipodal cell (a+1-i, b+1-j).'
    poset = rectangle_poset(a, b)
    coeff = [ZERO] * poset.size
    coeff[poset.index_of((i, j))] += ONE
    coeff[poset.index_of((a + 1 - i, b + 1 - j))] += ONE
    return Functional(f"pair({i},{j})", coeff)


def file_functional(a, b, k):
    'Sum of the entries in file k of [a]x[b].'
    poset = rectangle_poset(a, b)
    coeff = [ZERO] * poset.size
    for x in poset.file_members(k):
        coeff[x] = ONE
    return Functional(f"file({k})", coeff)


def standard_functionals(a, b):
    'Every antipodal pair sum and every file sum of [a]x[b].'
    out = [
        pair_functional(a, b, i, j)
        for i in range(1, a + 1)
        for j in range(1, b + 1)
    ]
    out += [file_functional(a, b, k) for k in range(1, a + b)]
    return out


def _read(alg, functional, aggregate):
    'The orbit statistic of a functional, from the orbit aggregate.'
    if alg.positive_domain:
        return _monomial(functional.support, aggregate)
    return _linear(functional.support, aggregate)


def orbit_statistic(alg, map_name, functional, f, cap=1000):
    """Orbit statistic of one start: (value, period).

    Piecewise-linear: exact mean of the linear form over the orbit.
    Birational: orbit product of the monomial.
    """
    aggregate, period = orbit_aggregate(alg, map_name, f, cap)
    return _read(alg, functional, aggregate), period


def orbit_statistics(alg, map_name, functionals, f, cap=1000):
    'All the functionals statistics of one start, walking its orbit once.'
    aggregate, _ = orbit_aggregate(alg, map_name, f, cap)
    return {fn.name: _read(alg, fn, aggregate) for fn in functionals}


def homomesy_check(alg, map_name, functional, starts, cap=1000):
    """Is the orbit statistic the same over all starts?

    The constant comes from the first start; the report records it and
    any starts that disagree.
    """
    constant = None
    violations = []
    samples = 0
    for f in starts:
        samples += 1
        value, _ = orbit_statistic(alg, map_name, functional, f, cap=cap)
        if constant is None:
            constant = value
        elif value != constant:
            violations.append(
                {"start": [str(v) for v in f.values], "statistic": str(value)}
            )
    return {
        "functional": functional.name,
        "map": map_name,
        "regime": alg.name,
        "constant": str(constant),
        "samples": samples,
        "pass": not violations,
        "violations": violations,
    }


def exact_rank(rows):
    'Rank of a matrix of rationals, by fraction-free-enough Gaussian elimination.'
    matrix = [list(row) for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != ZERO), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank][col]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col] != ZERO:
                scale = matrix[r][col] / head
                matrix[r] = [
                    x - scale * y for x, y in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def orbit_average_vector(alg, map_name, f, cap=1000):
    """Per-element orbit averages of a start.  Piecewise-linear only:
    arithmetic orbit means of birational values are not homomesic, so the
    audit's span F <= H <= N does not hold for them."""
    if alg.positive_domain:
        raise ValueError(f"orbit average vectors are piecewise-linear only, got {alg.name}")
    return orbit_aggregate(alg, map_name, f, cap)[0]


def average_space_rank(alg, map_name, averages, functionals):
    """Dimension audit of the homomesic functionals, from orbit averages.

    averages holds the orbit-average vector A(f) of each sampled start.
    N, the dimension of the space of coefficient vectors whose orbit
    average agrees on every sampled start, is p - rank{A(f) - A(f_0)};
    rank F is the rank of the given functionals' coefficient matrix.
    With H the true homomesy space, span F <= H <= N whenever the
    functionals are homomesic, and more starts can only shrink N.  So
    N == rank F certifies H == span F, N < rank F fails for good, and
    only N > rank F leaves the audit open.  It passes when N == rank F.
    """
    if len(averages) < 2:
        raise ValueError("need at least two sample starts")
    base = averages[0]
    diffs = [[x - y for x, y in zip(avg, base)] for avg in averages[1:]]
    nullspace_dim = len(base) - exact_rank(diffs)
    functional_rank = exact_rank([fn.coefficients for fn in functionals])
    return {
        "map": map_name,
        "regime": alg.name,
        "samples": len(averages),
        "nullspace_dim": nullspace_dim,
        "functional_rank": functional_rank,
        "pass": nullspace_dim == functional_rank,
    }


def homomesy_space_rank(alg, map_name, samples, functionals, cap=1000):
    'Dimension audit of the homomesic functionals over sampled starts (see average_space_rank).'
    averages = [orbit_average_vector(alg, map_name, f, cap=cap) for f in samples]
    return average_space_rank(alg, map_name, averages, functionals)
