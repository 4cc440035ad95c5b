"""Toggle dynamics on rational-valued poset arrays.

One engine drives both continuous regimes.  A ToggleAlgebra says how the
values on lower and upper covers aggregate (max and min for the
piecewise-linear case; sum and parallel sum for the birational case) and
how the aggregates recombine with the old value (L + R - v, resp.
L * R / v).  Swapping one instance for the other tropicalizes every
formula in the library at once, so the piecewise-linear theory is the
max-plus shadow of the birational theory by construction.

The poset is augmented with a virtual bottom below the minimal elements
and a virtual top above the maximal ones; their values are the algebra's
boundary pair, (0, 1) for piecewise-linear and (1, 1) for birational by
default; pl_algebra(bottom, top) and birational_algebra(bottom, top)
build any other.  The boundary belongs to the algebra alone: a PArray
carries only values, and every toggle, walk and check reads alg.boundary.

Sweeps (rowmotion, promotion, their inverses and file toggles) are
walks: iterate(alg, f, order, times) reads entry x after times[x] sweeps
of order.  pl_algebra and birational_algebra put an exact integer Lane
in the algebra's sweep slot, in three parts: enter puts f's values and
alg.boundary into one int state (or declines), stage runs one walk's
toggle loop in that state, and leave builds one rational per read entry,
keeping f's own values elsewhere.  iterate calls the lane itself:
enter, one _schedule plan, one stage, leave.
Several walks from one f go in two steps.  walk_program(poset, *chains)
compiles chains of (order, times) stages once: chains that start with
the same stage objects share that run, stages that continue one run over
the same order object share one walk of it (max(times) sweeps over all
their times, each stage's reads going to its own state), and each walk's
schedule is looked up there.  walks(alg, f, program) then only enters f,
runs the compiled walks and picks one state per chain; it never leaves,
since lane states compare exactly as the walked arrays would.
orbit_aggregate(alg, map_name, f) is the third driver: one enter, then
orbits.orbit over frozen lane states, each step one stage of a _schedule
plan of one sweep of the map's order; each element's orbit aggregate is
one Rat read from ints (PL: column sum over D * period; birational: the
column's numerator product over its denominator product).

- The piecewise-linear lane scales the values and the boundary by D, the
  lcm of all their denominators.  max, min, + and - map the lattice
  (1/D)Z^P to itself, so D is fixed over every walk from f and every
  toggle is int arithmetic; states are lists of ints, and each keeps D
  in the slot after the top boundary slot, where leave reads it.
- The birational lane holds each value as a (numerator, denominator)
  pair, builds the lower sum, the upper parallel sum and L*R/v unreduced,
  and reduces the result with a single gcd per toggle, so states are
  reduced positive pairs.  It enters only positive input, where no rule
  can divide by zero; when a value or a boundary value is not positive
  it declines, and iterate and walks run the reference loop below, which
  raises where the rules divide by zero.

A lane runs its walk from a schedule (_schedule), built once per poset,
order and times and cached on the poset, MAX_SCHEDULES plans at most:
for each sweep, the live toggles in order, then the entries read.  A
toggle of x is live when its result reaches a read entry, directly or
through later toggles that take x's value as their own previous value
or as a cover's; one backward pass over the sweeps decides it.  The
recombination shears read column j after j - 1 sweeps, so half of their
toggles are dead.  Skipping a dead toggle changes no read entry.  A
state has two boundary slots past the elements, size for the bottom
value and size + 1 for the top, and a toggle names the slots it reads:
(x, l0, l1, lower_rest, u0, u1, upper_rest), where a minimal element's
l0 is the bottom slot and a maximal element's u0 the top slot.  So each
lane has one toggle loop for every number of covers.

An algebra built directly with ToggleAlgebra(...) has no lane and walks
through _walk, which runs every toggle of every sweep through
_toggled_value, one at a time with the algebra's own rules.  That loop
is the reference semantics, and the one loop iterate and walks fall
back to: the lanes are tested equal to it on every walk, boundary and
shape, and single toggles always use _toggled_value.
"""

from collections import namedtuple
from functools import reduce
from math import gcd, lcm, prod

from .orbits import orbit
from .posets import OrderIdeal, PosetError, promotion_ideal, rowmotion_ideal
from .rational import ONE, ZERO, Rat

# Most (order, times) plans _schedule keeps per poset; past it the cache
# starts over, so a caller that walks many different times stays bounded.
MAX_SCHEDULES = 64


def _parallel(x, y):
    'Parallel sum xy/(x+y), the reciprocal-space addition.'
    return x * y / (x + y)


class ToggleAlgebra:
    'Aggregation rules and boundary values for one toggling regime.'

    __slots__ = (
        "name",
        "lower_aggregate",
        "upper_aggregate",
        "recombine",
        "bottom_value",
        "top_value",
        "positive_domain",
        "sweep",
    )

    def __init__(self, name, lower_aggregate, upper_aggregate, recombine,
                 bottom_value, top_value, positive_domain=False, sweep=None):
        self.name = name
        self.lower_aggregate = lower_aggregate
        self.upper_aggregate = upper_aggregate
        self.recombine = recombine
        self.bottom_value = bottom_value
        self.top_value = top_value
        self.positive_domain = positive_domain
        # The integer Lane that iterate, walks and orbit_aggregate run, or
        # None.  With no lane, and on input the lane declines, they run
        # the reference loops.
        self.sweep = sweep

    @property
    def boundary(self):
        return (self.bottom_value, self.top_value)

    def reflect(self, v):
        'Unary dual: 1 - v piecewise-linearly, 1/v birationally.'
        return self.recombine(self.bottom_value, self.top_value, v)

    def combine(self, a, b):
        'Product-like pairing: a + b piecewise-linearly, a * b birationally.'
        return self.recombine(a, b, self.bottom_value)

    def difference(self, a, b):
        'Quotient-like pairing: a - b piecewise-linearly, a / b birationally.'
        return self.recombine(a, self.bottom_value, b)

    def array(self, poset, values):
        """Wrap values (anything Rat accepts) as a validated PArray; in a positive
        domain every value and both of the algebra's boundary values must be positive."""
        f = PArray(poset, values)
        if self.positive_domain:
            bad = next((v for v in f.values + self.boundary if v.numerator <= 0), None)
            if bad is not None:
                raise ValueError(f"{self.name} arrays must be strictly positive, got {bad}")
        return f

    def __repr__(self):
        return f"ToggleAlgebra({self.name!r})"


def _cover_slots(covers, boundary):
    'First cover (or the boundary slot), second cover or None, and the rest.'
    if not covers:
        return boundary, None, ()
    return covers[0], (covers[1] if len(covers) > 1 else None), covers[2:]


def _schedule(poset, order, *times):
    """For each sweep k = 1..max(times), the live toggles to run in order,
    and, per times vector, the entries x of order with times[x] == k to
    read after them.  A toggle is live when any of the vectors' reads
    needs it.

    A toggle is (x, l0, l1, lower_rest, u0, u1, upper_rest): l0 is x's
    first lower cover, or the bottom slot size when it has none, l1 the
    second or None, lower_rest the others; u0, u1 and upper_rest likewise
    for the upper covers, with the top slot size + 1.
    """
    key = (tuple(order), *map(tuple, times))
    plan = poset._schedules.get(key)
    if plan is None:
        size, lower, upper = poset.size, poset.lower_covers, poset.upper_covers
        # One toggle tuple per element, shared by every sweep of the plan.
        slots = {
            x: (x, *_cover_slots(lower[x], size), *_cover_slots(upper[x], size + 1))
            for x in order
        }
        plan, needed = [], set()  # entries whose current value is read later
        for k in range(max((max(t, default=0) for t in times), default=0), 0, -1):
            due = tuple(tuple(x for x in order if t[x] == k) for t in times)
            needed.update(*due)
            kept = []
            for x in reversed(order):
                if x in needed:
                    kept.append(x)
                    needed.update(lower[x], upper[x])
            plan.append(([slots[x] for x in reversed(kept)], due))
        if len(poset._schedules) >= MAX_SCHEDULES:
            poset._schedules.clear()
        plan = poset._schedules[key] = plan[::-1]
    return plan


class Lane(namedtuple("Lane", "enter stage leave")):
    """An exact integer lane, shared by iterate, walks and orbit_aggregate.

    enter(values, alg.boundary) -> the start state, or None to decline; a
    state holds the values at slots 0..size-1 and the bottom and top
    boundary values at slots size and size + 1, which no toggle writes,
    and anything else leave needs (the PL scale D) past them.
    stage(state, plan, count) -> the count states one _schedule plan of
    count times vectors reads, one per vector;
    leave(values, start, state, reads) -> values with the entries in
    reads rebuilt from state.
    """

    __slots__ = ()


def _pl_enter(values, boundary):
    'Values, then bottom and top, scaled by D, the lcm of all their denominators; then D.'
    den = lcm(*[v.denominator for v in (*boundary, *values)])
    return [v.numerator * (den // v.denominator) for v in (*values, *boundary)] + [den]


def _pl_stage(ints, plan, count):
    'One piecewise-linear walk in ints on the lattice (1/D)Z^P.'
    ints = list(ints)
    outs = [list(ints) for _ in range(count)]
    for toggles, reads in plan:
        for x, l0, l1, lows, u0, u1, ups in toggles:
            # Explicit compares: max() and min() cost three times as much
            # on covers of one or two elements.
            left = ints[l0]
            if l1 is not None:
                if ints[l1] > left:
                    left = ints[l1]
                for y in lows:
                    if ints[y] > left:
                        left = ints[y]
            right = ints[u0]
            if u1 is not None:
                if ints[u1] < right:
                    right = ints[u1]
                for y in ups:
                    if ints[y] < right:
                        right = ints[y]
            ints[x] = left + right - ints[x]
        for out, xs in zip(outs, reads):
            for x in xs:
                out[x] = ints[x]
    return outs


def _pl_leave(values, start, ints, reads):
    # Entries stay on a few lattice points, so each point becomes a
    # rational once; the input values seed the table.
    den = ints[-1]
    rats = dict(zip(start, values))
    out = list(values)
    for x in reads:
        n = ints[x]
        r = rats.get(n)
        if r is None:
            r = rats[n] = Rat(n, den)
        out[x] = r
    return out


def _birational_enter(values, boundary):
    '(numerator, denominator) pairs; declines unless every value and boundary value is positive.'
    nums = [v.numerator for v in (*values, *boundary)]
    if min(nums) <= 0:
        return None
    return nums, [v.denominator for v in (*values, *boundary)]


def _birational_stage(state, plan, count):
    'One birational walk on reduced positive pairs, one gcd per toggle.'
    nums, dens = list(state[0]), list(state[1])
    outs = [(list(nums), list(dens)) for _ in range(count)]
    for toggles, reads in plan:
        for x, l0, l1, lows, u0, u1, ups in toggles:
            ln, ld = nums[l0], dens[l0]
            if l1 is not None:
                n, d = nums[l1], dens[l1]
                ln, ld = ln * d + n * ld, ld * d
                for y in lows:
                    n, d = nums[y], dens[y]
                    ln, ld = ln * d + n * ld, ld * d
            rn, rd = nums[u0], dens[u0]
            if u1 is not None:
                # (rn/rd) * (n/d) / (rn/rd + n/d) = rn*n / (rn*d + n*rd)
                n, d = nums[u1], dens[u1]
                rn, rd = rn * n, rn * d + n * rd
                for y in ups:
                    n, d = nums[y], dens[y]
                    rn, rd = rn * n, rn * d + n * rd
            n, d = ln * rn * dens[x], ld * rd * nums[x]
            g = gcd(n, d)
            nums[x], dens[x] = n // g, d // g
        for (out_nums, out_dens), xs in zip(outs, reads):
            for x in xs:
                out_nums[x], out_dens[x] = nums[x], dens[x]
    return outs


def _birational_leave(values, start, state, reads):
    nums, dens = state
    out = list(values)
    for x in reads:
        out[x] = Rat(nums[x], dens[x])
    return out


def pl_algebra(bottom=ZERO, top=ONE):
    'Max-plus toggling: L = max below, R = min above, v -> L + R - v.'
    return ToggleAlgebra(
        "pl", max, min, lambda L, R, v: L + R - v, Rat(bottom), Rat(top),
        sweep=Lane(_pl_enter, _pl_stage, _pl_leave),
    )


def birational_algebra(bottom=ONE, top=ONE):
    'Subtraction-free toggling: L = sum below, R = parallel sum above, v -> L*R/v.'
    return ToggleAlgebra(
        "birational",
        lambda x, y: x + y,
        _parallel,
        lambda L, R, v: L * R / v,
        Rat(bottom),
        Rat(top),
        positive_domain=True,
        sweep=Lane(_birational_enter, _birational_stage, _birational_leave),
    )


PL = pl_algebra()
BIRATIONAL = birational_algebra()


class PArray:
    """Rational values on the elements of a poset, in canonical index order.

    The boundary is the walking algebra's, not the array's.  Arrays are
    immutable and compare exactly.
    """

    __slots__ = ("poset", "values")

    def __init__(self, poset, values):
        # Values that are already Rat are kept as they are, not rebuilt.
        try:
            values = tuple([v if type(v) is Rat else Rat(v) for v in values])
        except TypeError:
            raise ValueError("array values must be a sequence of rationals") from None
        if len(values) != poset.size:
            raise ValueError(f"{len(values)} values for {poset.size} elements")
        self.poset = poset
        self.values = values

    def _replace(self, values):
        new = object.__new__(PArray)
        new.poset = self.poset
        new.values = tuple(values)
        return new

    def __getitem__(self, x):
        return self.values[x]

    def at(self, label):
        'Value at the element with this label, e.g. f.at((1,2)).'
        return self.values[self.poset.index_of(label)]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        return (
            isinstance(other, PArray)
            and self.poset == other.poset
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        inside = ", ".join(str(v) for v in self.values)
        return f"PArray({inside})"


def _toggled_value(alg, poset, values, boundary, x):
    lows = poset.lower_covers[x]
    ups = poset.upper_covers[x]
    left = reduce(alg.lower_aggregate, [values[y] for y in lows]) if lows else boundary[0]
    right = reduce(alg.upper_aggregate, [values[y] for y in ups]) if ups else boundary[1]
    return alg.recombine(left, right, values[x])


def toggle(alg, f, x):
    'Toggle one element: replace f(x) using its neighbours in the augmented poset.'
    poset = f.poset
    if not 0 <= x < poset.size:
        raise PosetError(f"element index {x} out of range")
    values = list(f.values)
    values[x] = _toggled_value(alg, poset, values, alg.boundary, x)
    return f._replace(values)


def _walk(alg, f, order, times):
    'The reference walk of iterate: every toggle of every sweep through _toggled_value.'
    poset, boundary = f.poset, alg.boundary
    values, out = list(f.values), list(f.values)
    for k in range(1, max(times, default=0) + 1):
        for x in order:
            values[x] = _toggled_value(alg, poset, values, boundary, x)
        for x, t in enumerate(times):
            if t == k:
                out[x] = values[x]
    return f._replace(out)


def iterate(alg, f, order, times):
    'Each entry x of f as it stands after times[x] sweeps of order; untouched x keep f(x).'
    lane = alg.sweep
    start = None if lane is None else lane.enter(f.values, alg.boundary)
    if start is None:
        return _walk(alg, f, order, times)
    plan = _schedule(f.poset, order, times)
    (walked,) = lane.stage(start, plan, 1)
    reads = [x for _, (xs,) in plan for x in xs]
    return f._replace(lane.leave(f.values, start, walked, reads))


class WalkProgram(namedtuple("WalkProgram", "poset steps results")):
    """Chains of walks compiled by walk_program for one poset.

    steps: (source, plan, stages) per walk of one order, in run order,
    where source is the index of the state the walk starts from, stages
    the (order, times) stages it reads, and plan their _schedule plan;
    the states a step makes get the next indices, one per stage, after
    the start state at index 0.  results: the index of each chain's state.
    """

    __slots__ = ()


def walk_program(poset, *chains):
    """Compile chains of (order, times) stages for walks on poset.

    Chains that start with the same stage objects share that run, and
    the stages that continue one run over the same order object share
    one walk of that order: one step, max(times) sweeps over all their
    times, with a _schedule plan pruned for the reads of them all.
    """
    # (stage ids of a run, id of an order) -> the stages that continue the
    # run over that order, by id
    shared = {}
    for chain in chains:
        key = ()
        for stage in chain:
            shared.setdefault((key, id(stage[0])), {})[id(stage)] = stage
            key += (id(stage),)
    walked = {(): 0}  # stage ids of a run -> the index of its state
    steps, results = [], []
    for chain in chains:
        key = ()
        for stage in chain:
            prefix, key = key, key + (id(stage),)
            if key in walked:
                continue
            group = shared[prefix, id(stage[0])]
            stages = tuple(group.values())
            plan = _schedule(poset, stage[0], *(times for _, times in stages))
            steps.append((walked[prefix], plan, stages))
            walked.update((prefix + (k,), i) for i, k in enumerate(group, len(walked)))
        results.append(walked[key])
    return WalkProgram(poset, tuple(steps), tuple(results))


def walks(alg, f, program):
    """One result per chain of a walk_program, walked from f, each stage
    as in iterate.  In a lane this is one enter, then one stage call per
    step of the program, and nothing is left: the results are lane
    states, which compare with each other exactly as the walked PArrays
    would.  With no lane, or on input the lane declines, every stage runs
    the reference loop _walk, and the results are the PArrays iterate
    gives.
    """
    if f.poset != program.poset:
        raise PosetError("the walk program is for another poset")
    lane = alg.sweep
    start = None if lane is None else lane.enter(f.values, alg.boundary)
    if start is None:
        states = [f]
        for source, _, stages in program.steps:
            states += [_walk(alg, states[source], *stage) for stage in stages]
    else:
        run = lane.stage
        states = [start]
        for source, plan, stages in program.steps:
            states += run(states[source], plan, len(stages))
    return [states[k] for k in program.results]


def _sweep(alg, f, order):
    return iterate(alg, f, order, [1] * f.poset.size)


def rowmotion(alg, f):
    'Toggle every element once, top rank first.'
    return _sweep(alg, f, f.poset.rowmotion_order)


def rowmotion_inverse(alg, f):
    'Undo rowmotion: each toggle is an involution, so run the sweep backwards.'
    return _sweep(alg, f, list(reversed(f.poset.rowmotion_order)))


def promotion(alg, f):
    'Toggle every element once, sweeping files left to right (needs an rc embedding).'
    return _sweep(alg, f, f.poset.promotion_order)


def promotion_inverse(alg, f):
    'Undo promotion: sweep the files right to left.'
    return _sweep(alg, f, list(reversed(f.poset.promotion_order)))


def file_toggle(alg, f, index):
    'Toggle every element of one file; they are incomparable, so order is moot.'
    return _sweep(alg, f, f.poset.file_members(index))


# Map name -> (ideal step, array step); suites report their checks in this order.
MAPS = {"rowmotion": (rowmotion_ideal, rowmotion), "promotion": (promotion_ideal, promotion)}

# Regime name -> its algebra, for the regimes that walk arrays.
ALGEBRAS = {"pl": PL, "birational": BIRATIONAL}


def step_map(alg, map_name):
    'Array step of the named map under alg, as a function of the array alone.'
    try:
        _, stepper = MAPS[map_name]
    except KeyError:
        raise PosetError(f"unknown map {map_name!r}; pick rowmotion or promotion") from None
    return lambda f: stepper(alg, f)


def orbit_aggregate(alg, map_name, f, cap=1000):
    """The per-element column products (birational) or column means (PL)
    of f's orbit under the named map, and its period: walked in alg's lane,
    or over step_map when alg has none or its lane declines f."""
    step = step_map(alg, map_name)  # refuses an unknown map before its order is read
    lane = alg.sweep
    start = None if lane is None else lane.enter(f.values, alg.boundary)
    if start is None:
        rec = orbit(step, f, cap=cap)
        period = rec.period
        columns = zip(*(state.values for state in rec))
        if alg.positive_domain:
            return [prod(column, start=ONE) for column in columns], period
        return [sum(column, ZERO) / period for column in columns], period
    poset = f.poset
    size, stage = poset.size, lane.stage
    plan = _schedule(poset, getattr(poset, f"{map_name}_order"), [1] * size)
    if not alg.positive_domain:
        rec = orbit(lambda ints: tuple(stage(ints, plan, 1)[0]), tuple(start), cap=cap)
        scale = start[-1] * rec.period
        return [Rat(sum(column), scale) for column in list(zip(*rec))[:size]], rec.period
    rec = orbit(
        lambda pair: tuple(map(tuple, stage(pair, plan, 1)[0])), tuple(map(tuple, start)), cap=cap
    )
    nums = list(zip(*(state[0] for state in rec)))[:size]
    dens = zip(*(state[1] for state in rec))
    return [Rat(prod(n), prod(d)) for n, d in zip(nums, dens)], rec.period


def vertex_from_ideal(ideal):
    'Indicator array of the complementary filter: 0 on the ideal, 1 off it.'
    poset = ideal.poset
    values = [ONE] * poset.size
    for x in ideal.indices:
        values[x] = ZERO
    return PArray(poset, values)


def ideal_from_vertex(f):
    """Read a 0/1 array as an order ideal (the set of zero entries).

    Raises when values stray from {0,1} or the ones are not up-closed,
    i.e. when f is not a vertex indicator.
    """
    if any(v != ZERO and v != ONE for v in f.values):
        raise ValueError("not a vertex: entries must all be 0 or 1")
    zeros = [x for x in range(f.poset.size) if f.values[x] == ZERO]
    try:
        return OrderIdeal(f.poset, zeros)
    except PosetError as exc:
        raise ValueError(f"not a vertex: {exc}") from exc
