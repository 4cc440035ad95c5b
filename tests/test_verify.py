import tracemalloc

import pytest

from togglekit.posets import Poset, PosetError, rectangle_poset, triangle_poset
from togglekit.rational import Rat
from togglekit import verify
from togglekit.verify import (
    SUITES,
    suite_bridge,
    suite_homomesy,
    suite_order,
    suite_quotient,
    suite_recombination,
    suite_reciprocity,
    suite_three_step,
    suite_vertex,
)

GRID = rectangle_poset(2, 2)
WIDE = rectangle_poset(2, 3)
CUBE = rectangle_poset(3, 3)


def _assert_clean(report, suite):
    assert report["suite"] == suite
    assert report["pass"], report
    for check in report["checks"]:
        assert check["pass"], check
        assert check["violations"] == []
        assert check["inputs"] > 0


def test_suite_names_are_wired():
    assert sorted(SUITES) == [
        "bridge",
        "homomesy",
        "order",
        "quotient",
        "reciprocity",
        "recombination",
        "three-step",
        "vertex",
    ]


@pytest.mark.parametrize(
    "name", ["order", "recombination", "reciprocity", "quotient", "three-step"]
)
def test_rectangle_suites_pass(name):
    _assert_clean(SUITES[name](WIDE, samples=15, seed=5), name)


def test_homomesy_suite_passes():
    report = suite_homomesy(GRID, samples=12, seed=5)
    _assert_clean(report, "homomesy")
    ranks = [c for c in report["checks"] if "dimension" in c["check"]]
    assert ranks and all(c["nullspace_dim"] == c["functional_rank"] == 3 for c in ranks)


@pytest.mark.parametrize("seed", [2012, 3025])
def test_homomesy_rank_audit_draws_again_while_unstable(seed):
    # The fifth rank direction of the promotion audit on [4]x[4] first
    # shows after 27-29 difference vectors at these seeds, so the first
    # half of the 50 samples has a lower rank than all of them.
    report = suite_homomesy(rectangle_poset(4, 4), samples=50, seed=seed)
    assert report["pass"], report
    ranks = {c["check"]: c for c in report["checks"] if "dimension" in c["check"]}
    assert all(c["nullspace_dim"] == c["functional_rank"] == 11 for c in ranks.values())
    assert ranks["homomesy-space-dimension-under-rowmotion"]["inputs"] == 50
    assert ranks["homomesy-space-dimension-under-promotion"]["inputs"] == 100


def test_homomesy_rank_audit_stops_at_four_rounds(monkeypatch):
    counts = []
    walks = []
    walk = verify.orbit_average_vector

    def counted_walk(alg, map_name, f, cap=1000):
        walks.append(map_name)
        return walk(alg, map_name, f, cap=cap)

    def never_stable(alg, map_name, averages, functionals):
        counts.append(len(averages))
        return {
            "samples": len(averages),
            "nullspace_dim": 3,
            "functional_rank": 3,
            "stable": False,
            "pass": False,
        }

    monkeypatch.setattr(verify, "orbit_average_vector", counted_walk)
    monkeypatch.setattr(verify, "average_space_rank", never_stable)
    report = suite_homomesy(GRID, samples=12, seed=5)
    assert counts == [12, 24, 36, 48] * 2
    # One orbit walk per draw: earlier rounds are not walked again.
    assert walks == ["rowmotion"] * 48 + ["promotion"] * 48
    ranks = [c for c in report["checks"] if "dimension" in c["check"]]
    assert [c["inputs"] for c in ranks] == [48, 48]
    assert not any(c["pass"] for c in ranks)
    assert ranks[0]["violations"] == [
        {"nullspace_dim": 3, "functional_rank": 3, "stable": False}
    ]


def test_vertex_suite_passes_on_rectangles_and_triangles():
    _assert_clean(suite_vertex(GRID, samples=8, seed=5), "vertex")
    _assert_clean(suite_vertex(triangle_poset(3), samples=8, seed=5), "vertex")


def test_three_step_suite_is_pl_only_off_rectangles():
    report = suite_three_step(triangle_poset(3), samples=10, seed=5)
    _assert_clean(report, "three-step")
    assert {c["regime"] for c in report["checks"]} == {"pl"}


def test_bridge_suite_passes():
    report = suite_bridge(shapes=((2, 3, 5), (1, 3, 4)), samples=10, seed=5)
    _assert_clean(report, "bridge")
    assert len(report["checks"]) == 6


def test_rectangle_only_suites_reject_other_posets():
    tri = triangle_poset(3)
    for name in ("order", "recombination", "reciprocity", "quotient", "homomesy"):
        with pytest.raises(PosetError):
            SUITES[name](tri, samples=2, seed=1)


@pytest.mark.parametrize(
    "name", ["order", "recombination", "reciprocity", "quotient", "homomesy"]
)
def test_rectangle_suites_refuse_a_hand_built_triangle(name):
    tri = triangle_poset(3)
    hand_built = Poset(tri.size, tri.covers, labels=tri.labels, rc=tri.rc)
    with pytest.raises(PosetError, match="needs a rectangle shape"):
        SUITES[name](hand_built, samples=2, seed=1)


def test_reports_are_seed_deterministic():
    a = suite_order(WIDE, samples=10, seed=99)
    b = suite_order(WIDE, samples=10, seed=99)
    assert a == b
    c = suite_order(WIDE, samples=10, seed=100)
    assert c["seed"] == 100


def test_explicit_start_replaces_sampling():
    start = [Rat(1), Rat(2), Rat(3), Rat(4)]
    report = suite_reciprocity(GRID, samples=50, seed=1, start=start)
    _assert_clean(report, "reciprocity")
    assert all(c["inputs"] == 1 for c in report["checks"])
    report = suite_order(GRID, samples=50, seed=1, start=start)
    assert report["pass"]
    sampled = [c for c in report["checks"] if c["regime"] != "combinatorial"]
    assert all(c["inputs"] == 1 for c in sampled)


def test_order_suite_covers_all_regimes_and_maps():
    report = suite_order(GRID, samples=5, seed=2)
    combos = {(c["check"], c["regime"]) for c in report["checks"]}
    assert ("rowmotion-power-4-is-identity", "combinatorial") in combos
    assert ("promotion-power-4-is-identity", "pl") in combos
    assert ("rowmotion-power-4-is-identity", "birational") in combos
    assert len(combos) == 6


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3)])
def test_order_suite_fails_rowmotion_without_its_last_toggle(monkeypatch, shape):
    order = Poset.__dict__["rowmotion_order"].func
    monkeypatch.setattr(Poset, "rowmotion_order", property(lambda p: order(p)[:-1]))
    report = suite_order(rectangle_poset(*shape), samples=5, seed=1)
    failed = {(c["check"], c["regime"]) for c in report["checks"] if not c["pass"]}
    name = f"rowmotion-power-{sum(shape)}-is-identity"
    # The promotion checks still pass.
    assert failed == {(name, regime) for regime in ("combinatorial", "pl", "birational")}


def test_order_suite_hands_on_at_most_max_reported_combinatorial_violations(monkeypatch):
    order = Poset.__dict__["rowmotion_order"].func
    monkeypatch.setattr(Poset, "rowmotion_order", property(lambda p: order(p)[:-1]))
    handed = []
    record = verify._record

    def counted(name, regime, inputs, violations, **extra):
        if regime == "combinatorial":
            handed.append((name, inputs, len(violations)))
        return record(name, regime, inputs, violations, **extra)

    monkeypatch.setattr(verify, "_record", counted)
    suite_order(rectangle_poset(6, 6), samples=1, seed=1)
    # 11 of the 924 ideals fail the rowmotion check; the first MAX_REPORTED are kept.
    assert handed == [
        ("rowmotion-power-12-is-identity", 924, verify.MAX_REPORTED),
        ("promotion-power-12-is-identity", 924, 0),
    ]


def test_quotient_suite_is_birational_only():
    report = suite_quotient(WIDE, samples=10, seed=3)
    assert {c["regime"] for c in report["checks"]} == {"birational"}


def test_recombination_suite_checks_both_directions():
    report = suite_recombination(WIDE, samples=8, seed=4)
    names = {c["check"] for c in report["checks"]}
    assert names == {
        "recombination-conjugates-promotion-to-rowmotion",
        "inverse-shear-conjugates-rowmotion-to-promotion",
        "shear-round-trip-is-identity",
    }


def test_checks_hold_at_most_max_reported_violations():
    class Record:
        live = most = 0

        def __init__(self, x):
            self.x = x
            Record.live += 1
            Record.most = max(Record.most, Record.live)

        def __del__(self):
            Record.live -= 1

    count = 10**4
    failing, passing = verify._checks(
        "pl", (x for x in range(count)), ["fails", "passes"], lambda x: ([Record(x)], [])
    )
    assert failing["inputs"] == passing["inputs"] == count
    assert not failing["pass"] and passing["pass"]
    assert [r.x for r in failing["violations"]] == [0, 1, 2]
    assert passing["violations"] == []
    # Each record past the first MAX_REPORTED is dropped as it arrives.
    assert Record.most == verify.MAX_REPORTED + 1


def test_homomesy_walks_both_maps_from_each_array_in_one_pass(monkeypatch):
    seen = []
    statistics = verify.orbit_statistics

    def recorded(alg, map_name, functionals, f, cap=1000):
        seen.append((alg.name, map_name, f.values))
        return statistics(alg, map_name, functionals, f, cap=cap)

    monkeypatch.setattr(verify, "orbit_statistics", recorded)
    assert suite_homomesy(GRID, samples=5, seed=3)["pass"]
    # 5 PL draws, 5 birational draws, then the 6 vertices of J([2]x[2]).
    assert len(seen) == 2 * (5 + 5 + 6)
    for first, second in zip(seen[::2], seen[1::2]):
        assert first[1] == "rowmotion" and second[1] == "promotion"
        assert first[0] == second[0] and first[2] == second[2]


def _fill_tuple_free_lists():
    """CPython keeps up to 2,000 freed tuples of each length up to 20 for
    reuse, and tracemalloc counts them as held.  A tuple built from a
    generator is allocated at one length and freed at another, so those
    lists fill up during a traced run.  Filling them first, with tuples
    built before tracing starts, leaves only what a suite holds."""
    for length in range(1, 21):
        held = [tuple(range(length)) for _ in range(2100)]
        del held


def _traced_peak(name, samples):
    _fill_tuple_free_lists()
    tracemalloc.start()
    try:
        SUITES[name](CUBE, samples=samples, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name", ["order", "three-step", "recombination", "reciprocity", "quotient", "vertex"]
)
def test_suite_memory_does_not_grow_with_samples(name):
    # Holding every draw costs 0.6 to 1.2 KB per sample on [3]x[3], so 360
    # more samples would add 200 KB or more.  The homomesy rank audit keeps
    # one average vector per draw and is left out.
    SUITES[name](CUBE, samples=2, seed=1)
    few, many = _traced_peak(name, 40), _traced_peak(name, 400)
    assert many - few < 64 * 1024, (few, many)
