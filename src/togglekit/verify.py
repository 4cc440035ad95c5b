"""Verification suites: seeded invariant batches with JSON-able reports.

Each suite returns {"suite", "seed", "pass", "checks": [...]} where every
check records what was tested, in which regime, how many inputs, and up
to three counterexamples verbatim.  Suites are deterministic for a given
seed, which the command line relies on for byte-identical reports.

Every check record comes from _record, most through _checks, which runs
a probe over any iterable of inputs: a suite is its draws, its probes and
its check names.  Draws are generators, so a suite holds one input at a
time and memory does not grow with samples, save in the homomesy rank audit.
"""

from functools import reduce
from math import prod

from .birational import (
    file_toggle_swap_check,
    promotion_shift_check,
    quotient_sequence,
    reciprocity_check,
    shear_stages,
)
from .dynamics import (
    ALGEBRAS,
    BIRATIONAL,
    MAPS,
    PL,
    file_toggle,
    promotion,
    rowmotion,
    toggle,
    vertex_from_ideal,
    walk_program,
    walks,
)
from .homomesy import (
    average_space_rank,
    orbit_average_vector,
    orbit_statistics,
    standard_functionals,
)
from .polytopes import three_step
from .posets import (
    PosetError,
    brouwer_schrijver,
    down_closure,
    enumerate_ideals,
    promotion_ideal,
    rowmotion_by_complementation,
    rowmotion_ideal,
    toggle_ideal,
)
from .rational import ONE
from .sampling import (
    random_linear_extension,
    random_polytope_point,
    random_positive_array,
    random_tableau,
    seeded_rng,
)
from .tableaux import (
    MAX_ARRAY_SIZE,
    MAX_ENTRY,
    TableauError,
    bender_knuth,
    tableau_promotion,
    tableau_to_array,
)

MAX_REPORTED = 3

BRIDGE_SHAPES = ((2, 3, 5), (2, 2, 4), (1, 3, 4))

# Most work one bridge sample may take, in _bridge_work's units of about
# 1-2 us each (one process on a 2-core Linux host, Python 3.11): one sample
# took 0.45-0.76 s at 1x1x400 (319,600 units), 0.47-0.63 s at 5x20x200
# (395,000) and 0.41 s at 1x20000x100 (219,900).
MAX_BRIDGE_WORK = 400_000


def _bridge_work(rows, cols, max_entry):
    """Work of one bridge sample with entries at most n: its
    Bender-Knuth check maps n - 1 tableaux to arrays of rows * (n - rows)
    elements, one unit each, and its promotion-power check makes about
    n * n Bender-Knuth passes over rows rows, one unit per row plus one
    per thousand entries a pass may copy.
    """
    n = max_entry
    return n * rows * (n - rows) + n * n * rows * (1 + cols // 1000)


RANK_ROUNDS = 4


def _record(name, regime, inputs, violations, **extra):
    """One check record: its name and regime, how many inputs it checked, and
    its first MAX_REPORTED violations at most; it passes when there are none."""
    return {
        "check": name,
        "regime": regime,
        "inputs": inputs,
        "pass": not violations,
        "violations": violations,
        **extra,
    }


def _checks(regime, inputs, names, probe, **extra):
    """One check record per name, all over the same inputs.

    probe(x) returns one list of violation records per name, so work the
    checks share on an input is done once.  inputs may be any iterable,
    walked once and counted.  A record keeps only the first MAX_REPORTED
    violations, dropping later ones as they arrive (a check with any fails).
    """
    found = [[] for _ in names]
    used = 0
    for x in inputs:
        used += 1
        for violations, records in zip(found, probe(x)):
            violations += records[: MAX_REPORTED - len(violations)]
    return [_record(name, regime, used, bad, **extra) for name, bad in zip(names, found)]


def _report(suite, seed, checks):
    return {"suite": suite, "seed": seed, "checks": checks, "pass": all(c["pass"] for c in checks)}


def _require_shape(poset, suite):
    if poset.rectangle_shape is None:
        raise PosetError(f"the {suite} suite needs a rectangle shape AxB")
    return poset.rectangle_shape


def _strs(f):
    return [str(v) for v in f.values]


def _unless(ok, f, **fields):
    'A violation naming the start array f, unless ok.'
    return [] if ok else [{"start": _strs(f), **fields}]


def _power(step, x, n):
    for _ in range(n):
        x = step(x)
    return x


def _draws(regime, poset, rng, count):
    'count fresh arrays of the regime, each drawn when it is used.'
    for _ in range(count):
        if regime == "pl":
            yield PL.array(poset, random_polytope_point(poset, rng))
        else:
            yield random_positive_array(BIRATIONAL, poset, rng)


def _regime_samples(poset, rng, count, start=None, regimes=("pl", "birational")):
    """Per regime (name, algebra, arrays): the one start, built here so it is
    validated before any walk, or count lazy draws, to be used up in turn."""
    out = []
    for regime in regimes:
        alg = ALGEBRAS[regime]
        arrays = _draws(regime, poset, rng, count) if start is None else [alg.array(poset, start)]
        out.append((regime, alg, arrays))
    return out


def suite_order(poset, samples=100, seed=None, start=None):
    'The (a+b)-th power of rowmotion and of promotion is the identity, in all regimes.'
    a, b = _require_shape(poset, "order")
    n = a + b
    names = [f"{map_name}-power-{n}-is-identity" for map_name in MAPS]
    ideals = enumerate_ideals(poset)
    checks = []
    # One map at a time, so the poset switches sweep tables once per map.
    # Inline, so an ideal costs its n steps and, as a shared ideal comes
    # back as itself, one identity test.
    for name, (step, _) in zip(names, MAPS.values()):
        bad = []
        for i in ideals:
            x = i
            for _ in range(n):
                x = step(x)
            if x is not i and x != i and len(bad) < MAX_REPORTED:
                bad.append({"start": list(i.indices)})
        checks.append(_record(name, "combinatorial", len(ideals), bad))
    rng = seeded_rng(seed)
    powers = [n] * poset.size
    # One chain per map, in names order, then f itself.
    program = walk_program(
        poset, [(poset.rowmotion_order, powers)], [(poset.promotion_order, powers)], []
    )
    for regime, alg, arrays in _regime_samples(poset, rng, samples, start):

        def returns(f):
            *powered, same = walks(alg, f, program)
            return [_unless(g == same, f) for g in powered]

        checks += _checks(regime, arrays, names, returns)
    return _report("order", seed, checks)


def suite_three_step(poset, samples=100, seed=None, start=None):
    """transfer, then cumulate, then complement equals toggle-by-rank rowmotion.

    Checked piecewise-linearly on any poset; the birational check is run
    when the poset is a rectangle.
    """
    regimes = ("pl",) if poset.rectangle_shape is None else ("pl", "birational")
    rng = seeded_rng(seed)
    checks = []
    for regime, alg, arrays in _regime_samples(poset, rng, samples, start, regimes):

        def factors(f):
            return (_unless(three_step(alg, f) == rowmotion(alg, f), f),)

        checks += _checks(regime, arrays, ["three-step-equals-rowmotion"], factors)
    return _report("three-step", seed, checks)


_SHEAR_CHECKS = (
    "recombination-conjugates-promotion-to-rowmotion",
    "inverse-shear-conjugates-rowmotion-to-promotion",
    "shear-round-trip-is-identity",
)


def suite_recombination(poset, samples=100, seed=None, start=None):
    'The diagonal shear turns promotion into rowmotion, and its inverse turns it back.'
    _require_shape(poset, "recombination")
    shear, unshear = shear_stages(poset)
    once = [1] * poset.size
    row, prom = (poset.rowmotion_order, once), (poset.promotion_order, once)
    # recombine_inverse(rowmotion(f)) as one stage: rowmotion is one whole
    # sweep of unshear's order, so the shear of rowmotion(f) reads each
    # entry one sweep later than unshear does and shares its walk from f.
    row_unshear = (unshear[0], [t + 1 for t in unshear[1]])
    # Both sides of each check as a chain from f, in _SHEAR_CHECKS order;
    # the last chain is f itself.
    program = walk_program(
        poset, [prom, shear], [shear, row], [row_unshear], [unshear, prom], [unshear, shear], []
    )
    rng = seeded_rng(seed)
    checks = []
    for regime, alg, arrays in _regime_samples(poset, rng, samples, start):

        def probe(f):
            walked = walks(alg, f, program)
            return [_unless(walked[k] == walked[k + 1], f) for k in (0, 2, 4)]

        checks += _checks(regime, arrays, _SHEAR_CHECKS, probe)
    return _report("recombination", seed, checks)


def suite_reciprocity(poset, samples=100, seed=None, start=None):
    'Antipodal entries of suitable rowmotion powers reflect the original entries.'
    _require_shape(poset, "reciprocity")
    rng = seeded_rng(seed)
    checks = []
    for regime, alg, arrays in _regime_samples(poset, rng, samples, start):

        def probe(f):
            ok, cells = reciprocity_check(alg, f)
            return (_unless(ok, f, cells=cells[:2]),)

        checks += _checks(regime, arrays, ["antipodal-reciprocity"], probe)
    return _report("reciprocity", seed, checks)


_QUOTIENT_CHECKS = (
    "quotient-product-is-neutral",
    "file-toggle-swaps-adjacent-quotients",
    "promotion-cycles-quotients-left",
)


def suite_quotient(poset, samples=100, seed=None, start=None):
    'File quotient profile: neutral product, adjacent swaps, cyclic shift.'
    a, b = _require_shape(poset, "quotient")
    rng = seeded_rng(seed)
    ((_, _, arrays),) = _regime_samples(poset, rng, samples, start, ("birational",))

    def probe(f):
        total = prod(quotient_sequence(BIRATIONAL, f), start=ONE)
        bad = [i for i in range(1, a + b) if not file_toggle_swap_check(BIRATIONAL, f, i)]
        return (
            _unless(total == ONE, f, product=str(total)),
            _unless(not bad, f, files=bad),
            _unless(promotion_shift_check(BIRATIONAL, f), f),
        )

    return _report("quotient", seed, _checks("birational", arrays, _QUOTIENT_CHECKS, probe))


def _constancy_probe(alg, map_name, functionals, cap, require_one):
    """Probe for one functional-constancy check over a run of starts,
    returning its violations.

    The first start fixes each constant (which must be 1 when
    require_one); a functional is reported once, at its first failure.
    """
    constants = {}
    failed = set()

    def probe(f):
        violations = []
        for name, value in orbit_statistics(alg, map_name, functionals, f, cap=cap).items():
            if name in failed:
                continue
            if name not in constants:
                constants[name] = value
                if not require_one or value == ONE:
                    continue
                found = {"product": str(value), "expected": "1"}
            elif value != constants[name]:
                found = {"statistic": str(value), "constant": str(constants[name])}
            else:
                continue
            failed.add(name)
            violations.append({"functional": name, "start": _strs(f), **found})
        return violations

    return probe


def _stable_rank(poset, rng, map_name, functionals, count, cap):
    """Rank audit of count draws, plus count more per round while unstable
    (RANK_ROUNDS at most).  Each draw's orbit is walked once: the average
    vectors of earlier rounds are kept, not recomputed.
    """
    averages = []
    while True:
        averages += [
            orbit_average_vector(PL, map_name, f, cap=cap)
            for f in _draws("pl", poset, rng, count)
        ]
        rank = average_space_rank(PL, map_name, averages, functionals)
        if rank["stable"] or len(averages) >= RANK_ROUNDS * count:
            return rank


def suite_homomesy(poset, samples=50, seed=None, cap=1000, start=None):
    """Standard functionals have constant orbit statistics in both regimes,
    birational orbit products are all 1, the statistics restricted to
    polytope vertices reproduce the exhaustive combinatorial homomesies,
    and the sampled homomesy space has the dimension the functionals span.
    """
    a, b = _require_shape(poset, "homomesy")
    functionals = standard_functionals(a, b)
    rng = seeded_rng(seed)
    checks = []
    extra = {"functionals": len(functionals)}
    # One pass per array walks both maps' orbits, in MAPS order.
    names = [f"standard-functionals-homomesic-under-{m}" for m in MAPS]
    for regime, alg, arrays in _regime_samples(poset, rng, samples, start):
        one = regime == "birational"
        probes = [_constancy_probe(alg, m, functionals, cap, one) for m in MAPS]
        checks += _checks(regime, arrays, names, lambda f: [p(f) for p in probes], **extra)
    vertices = (vertex_from_ideal(i) for i in enumerate_ideals(poset))
    names = [f"vertex-restricted-homomesy-under-{m}" for m in MAPS]
    probes = [_constancy_probe(PL, m, functionals, cap, False) for m in MAPS]
    checks += _checks("combinatorial", vertices, names, lambda f: [p(f) for p in probes], **extra)
    fields = ("nullspace_dim", "functional_rank")
    for map_name in MAPS:
        count = max(samples, 2 * poset.size + 2)
        rank = _stable_rank(poset, rng, map_name, functionals, count, cap)
        name = f"homomesy-space-dimension-under-{map_name}"
        violations = [] if rank["pass"] else [{k: rank[k] for k in (*fields, "stable")}]
        summary = {k: rank[k] for k in fields}
        checks.append(_record(name, "pl", rank["samples"], violations, **summary))
    return _report("homomesy", seed, checks)


def suite_bridge(shapes=BRIDGE_SHAPES, samples=100, seed=None):
    """Tableau dynamics match array dynamics through the pattern embedding.

    For random rectangular tableaux: each Bender-Knuth involution acts as
    the file toggle of the same index, whole-tableau promotion acts as
    piecewise-linear promotion, and promotion has order max_entry.
    Shapes above the tableau limits, or whose samples would each cost
    more than MAX_BRIDGE_WORK, are refused before any draw.
    """
    for rows, cols, max_entry in shapes:
        if rows * cols > MAX_ARRAY_SIZE:
            raise TableauError(
                f"a {rows}x{cols} tableau has {rows * cols} entries, "
                f"more than the limit of {MAX_ARRAY_SIZE}"
            )
        if max_entry > MAX_ENTRY:
            raise TableauError(f"max entry {max_entry} is above the limit of {MAX_ENTRY}")
        work = _bridge_work(rows, cols, max_entry)
        if work > MAX_BRIDGE_WORK:
            raise TableauError(
                f"a {rows}x{cols}x{max_entry} bridge sample costs {work} units of work, "
                f"more than the limit of {MAX_BRIDGE_WORK}"
            )
    rng = seeded_rng(seed)
    checks = []
    for rows, cols, max_entry in shapes:
        tableaux = (random_tableau(rows, cols, max_entry, rng) for _ in range(samples))

        def probe(t):
            arr = tableau_to_array(t)
            moves = range(1, max_entry)
            bad = [
                i for i in moves if tableau_to_array(bender_knuth(t, i)) != file_toggle(PL, arr, i)
            ]
            promoted = tableau_to_array(tableau_promotion(t)) == promotion(PL, arr)
            ordered = _power(tableau_promotion, t, max_entry) == t
            record = {"tableau": [list(r) for r in t.rows]}
            return (
                [dict(record, indices=bad)] if bad else [],
                [] if promoted else [record],
                [] if ordered else [record],
            )

        label = f"{rows}x{cols}-entries-{max_entry}"
        names = (
            f"bender-knuth-matches-file-toggle-{label}",
            f"tableau-promotion-matches-pl-promotion-{label}",
            f"tableau-promotion-power-{max_entry}-is-identity-{label}",
        )
        checks += _checks("tableau", tableaux, names, probe)
    return _report("bridge", seed, checks)


def _nonadjacent_pairs(poset):
    covers = set(poset.covers)
    pairs = ((x, y) for x in range(poset.size) for y in range(x + 1, poset.size))
    return [pair for pair in pairs if pair not in covers]


_TOGGLE_CHECKS = ("toggles-are-involutions", "nonadjacent-toggles-commute")


def suite_vertex(poset, samples=20, seed=None):
    """Structural invariants: toggles are involutions, toggles at
    non-adjacent elements commute, the piecewise-linear maps restricted
    to polytope vertices act as the combinatorial maps, rowmotion equals
    complement / minimals / down-closure, any top-to-bottom linear
    extension sweep equals rowmotion, and the antichain map is rowmotion
    conjugated by down-closure.
    """
    ideals = enumerate_ideals(poset)
    pairs = _nonadjacent_pairs(poset)
    elements = range(poset.size)

    def ideal_toggles(i):
        twice = [x for x in elements if toggle_ideal(toggle_ideal(i, x), x) != i]
        swapped = [
            [x, y]
            for x, y in pairs
            if toggle_ideal(toggle_ideal(i, x), y) != toggle_ideal(toggle_ideal(i, y), x)
        ]
        return (
            [{"ideal": list(i.indices), "element": x} for x in twice],
            [{"ideal": list(i.indices), "elements": xy} for xy in swapped],
        )

    checks = _checks("combinatorial", ideals, _TOGGLE_CHECKS, ideal_toggles)

    rng = seeded_rng(seed)
    for regime, alg, arrays in _regime_samples(poset, rng, samples):

        def array_toggles(f):
            twice = [x for x in elements if toggle(alg, toggle(alg, f, x), x) != f]
            swapped = [
                [x, y]
                for x, y in pairs
                if toggle(alg, toggle(alg, f, x), y) != toggle(alg, toggle(alg, f, y), x)
            ]
            return (
                _unless(not twice, f, elements=twice),
                _unless(not swapped, f, pairs=swapped[:3]),
            )

        checks += _checks(regime, arrays, _TOGGLE_CHECKS, array_toggles)

    def restricts(i):
        vertex = vertex_from_ideal(i)
        members = list(i.indices)
        bad = [
            x for x in elements if vertex_from_ideal(toggle_ideal(i, x)) != toggle(PL, vertex, x)
        ]
        violations = [{"ideal": members, "elements": bad}] if bad else []
        if vertex_from_ideal(rowmotion_ideal(i)) != rowmotion(PL, vertex):
            violations.append({"ideal": members, "map": "rowmotion"})
        if poset.rc is not None and vertex_from_ideal(promotion_ideal(i)) != promotion(PL, vertex):
            violations.append({"ideal": members, "map": "promotion"})
        complemented = rowmotion_by_complementation(i) == rowmotion_ideal(i)
        return violations, [] if complemented else [{"ideal": members}]

    names = ["vertex-restriction-equivariance", "complement-minimals-downclose-equals-rowmotion"]
    checks += _checks("combinatorial", ideals, names, restricts)

    extensions = [random_linear_extension(poset, rng) for _ in range(5)]

    def sweeps(pair):
        ext, ideal = pair
        if reduce(toggle_ideal, reversed(ext), ideal) == rowmotion_ideal(ideal):
            return ([],)
        return ([{"extension": ext, "ideal": list(ideal.indices)}],)

    swept = ((ext, ideal) for ext in extensions for ideal in ideals)
    name = "reversed-linear-extension-sweep-equals-rowmotion"
    checks += _checks("combinatorial", swept, [name], sweeps)

    def conjugates(ideal):
        antichain = tuple(
            x for x in ideal.indices if not any(up in ideal for up in poset.upper_covers[x])
        )
        image = down_closure(poset, brouwer_schrijver(poset, antichain))
        if image == rowmotion_ideal(down_closure(poset, antichain)):
            return ([],)
        return ([{"antichain": sorted(antichain)}],)

    name = "antichain-map-conjugate-to-rowmotion"
    checks += _checks("combinatorial", ideals, [name], conjugates)
    return _report("vertex", seed, checks)


SUITES = {
    "order": suite_order,
    "three-step": suite_three_step,
    "recombination": suite_recombination,
    "reciprocity": suite_reciprocity,
    "quotient": suite_quotient,
    "homomesy": suite_homomesy,
    "bridge": suite_bridge,
    "vertex": suite_vertex,
}
