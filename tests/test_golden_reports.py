"""Golden suite reports: the sha256 of dumps_canonical(report) is pinned.

The cases reach what the benchmark does not: explicit starts, the
triangle poset, custom bridge shapes, and forced counterexamples.  The
forced ones patch the layers below the suites (poset sweep orders, the
birational boundary, the toggle kernels, the functionals, the tableau
involutions) so that every violation-record format appears in some
report.  Run this file as a script to print the current digests.
"""

import hashlib
import re

import pytest

from togglekit import dynamics, homomesy, tableaux
from togglekit.dynamics import BIRATIONAL, PL
from togglekit.kernels import pybitops
from togglekit.posets import Poset, rectangle_poset, triangle_poset
from togglekit.rational import ONE, ZERO, Rat
from togglekit.serialize import dumps_canonical
from togglekit.verify import SUITES, suite_bridge, suite_order

SQUARE = rectangle_poset(2, 2)
WIDE = rectangle_poset(2, 3)
TALL = rectangle_poset(3, 2)
TRIANGLE = triangle_poset(3)
# Shear depths and rowmotion powers of up to 3 in both orientations.
LONG = rectangle_poset(3, 4)
DEEP = rectangle_poset(4, 3)
CUBE = rectangle_poset(3, 3)


def _rising(size):
    'Values increasing in index order: order-preserving and positive.'
    return [Rat(k + 1, size + 1) for k in range(size)]


def _reversed_rowmotion(mp):
    order = Poset.__dict__["rowmotion_order"].func
    mp.setattr(Poset, "rowmotion_order", property(lambda p: tuple(reversed(order(p)))))


def _truncated_promotion(mp):
    order = Poset.__dict__["promotion_order"].func
    mp.setattr(Poset, "promotion_order", property(lambda p: order(p)[:-1]))


def _birational_bottom_two(mp):
    mp.setattr(BIRATIONAL, "bottom_value", Rat(2))


def _first_member_files(mp):
    file_functional = homomesy.file_functional

    def first_member(a, b, k):
        fn = file_functional(a, b, k)
        first = fn.coefficients.index(ONE)
        coefficients = [ONE if x == first else ZERO for x in range(len(fn.coefficients))]
        return homomesy.Functional(fn.name, coefficients)

    mp.setattr(homomesy, "file_functional", first_member)


def _broken_toggles(mp):
    toggle = pybitops.toggle

    def parity_toggle(mask, lower, upper, bit):
        return mask if bin(mask).count("1") % 2 else toggle(mask, lower, upper, bit)

    toggled_value = dynamics._toggled_value

    def skewed(alg, poset, values, boundary, x):
        out = toggled_value(alg, poset, values, boundary, x)
        return alg.combine(out, out if x == 0 else values[0])

    mp.setattr(pybitops, "toggle", parity_toggle)
    mp.setattr(dynamics, "_toggled_value", skewed)
    # The integer sweep lanes bypass _toggled_value; without them every
    # sweep runs the skewed toggle too.
    mp.setattr(PL, "sweep", None)
    mp.setattr(BIRATIONAL, "sweep", None)


def _broken_bridge(mp):
    bender_knuth = tableaux.bender_knuth
    mp.setattr(Poset, "file_members", lambda p, k: p.files[-k])
    mp.setattr(
        tableaux,
        "bender_knuth",
        lambda t, i: t if i == t.max_entry - 1 else bender_knuth(t, i),
    )


# name -> (patch or None, suite name, poset or None for bridge, keyword arguments)
CASES = {
    "order-tall": (None, "order", TALL, {"samples": 4, "seed": 5}),
    "order-start": (None, "order", WIDE, {"seed": 7, "start": _rising(6)}),
    "order-start-3x3": (None, "order", CUBE, {"seed": 7, "start": _rising(9)}),
    "three-step-triangle": (None, "three-step", TRIANGLE, {"samples": 6, "seed": 3}),
    "three-step-triangle-start": (None, "three-step", TRIANGLE, {"start": _rising(6)}),
    "three-step-start": (None, "three-step", WIDE, {"seed": 7, "start": _rising(6)}),
    "recombination-tall": (None, "recombination", TALL, {"samples": 4, "seed": 5}),
    "recombination-start": (None, "recombination", WIDE, {"start": _rising(6)}),
    "recombination-3x4": (None, "recombination", LONG, {"samples": 4, "seed": 9}),
    "recombination-4x3": (None, "recombination", DEEP, {"samples": 4, "seed": 10}),
    "reciprocity-tall": (None, "reciprocity", TALL, {"samples": 4, "seed": 5}),
    "reciprocity-start": (None, "reciprocity", WIDE, {"start": _rising(6)}),
    "reciprocity-3x4": (None, "reciprocity", LONG, {"samples": 4, "seed": 9}),
    "reciprocity-4x3": (None, "reciprocity", DEEP, {"samples": 4, "seed": 10}),
    "quotient-tall": (None, "quotient", TALL, {"samples": 4, "seed": 5}),
    "quotient-start": (None, "quotient", WIDE, {"start": _rising(6)}),
    "homomesy-tall": (None, "homomesy", TALL, {"samples": 6, "seed": 5}),
    "homomesy-start": (None, "homomesy", SQUARE, {"seed": 7, "start": _rising(4)}),
    "vertex-triangle": (None, "vertex", TRIANGLE, {"samples": 4, "seed": 3}),
    "vertex-tall": (None, "vertex", TALL, {"samples": 3, "seed": 5}),
    "bridge-shapes": (
        None,
        "bridge",
        None,
        {"shapes": ((2, 2, 3), (3, 2, 4), (1, 4, 2)), "samples": 5, "seed": 11},
    ),
    "reversed-three-step": (_reversed_rowmotion, "three-step", SQUARE, {"samples": 4, "seed": 1}),
    "reversed-three-step-triangle": (
        _reversed_rowmotion, "three-step", TRIANGLE, {"samples": 4, "seed": 1}
    ),
    "reversed-recombination": (
        _reversed_rowmotion, "recombination", SQUARE, {"samples": 4, "seed": 1}
    ),
    "reversed-reciprocity": (
        _reversed_rowmotion, "reciprocity", SQUARE, {"samples": 4, "seed": 1}
    ),
    "reversed-reciprocity-3x4": (
        _reversed_rowmotion, "reciprocity", LONG, {"samples": 4, "seed": 1}
    ),
    "reversed-vertex": (_reversed_rowmotion, "vertex", SQUARE, {"samples": 3, "seed": 1}),
    "truncated-order": (_truncated_promotion, "order", SQUARE, {"samples": 4, "seed": 1}),
    "truncated-quotient": (_truncated_promotion, "quotient", SQUARE, {"samples": 4, "seed": 1}),
    "bottom-two-quotient": (_birational_bottom_two, "quotient", WIDE, {"samples": 4, "seed": 1}),
    "first-member-homomesy": (_first_member_files, "homomesy", WIDE, {"samples": 6, "seed": 1}),
    "broken-toggles-vertex": (_broken_toggles, "vertex", SQUARE, {"samples": 3, "seed": 1}),
    "broken-bridge": (
        _broken_bridge, "bridge", None, {"shapes": ((2, 2, 3),), "samples": 4, "seed": 1}
    ),
}

DIGESTS = {
    "bottom-two-quotient": "ccd29c0381efd69afe15d7785d5ae6e2e50c900d0858cbd9ef760d759075b6b1",
    "bridge-shapes": "ed885f54b1e0e46f4f3c31e5f7cc7d4339c62ea1c5e36183122e7aab7039cfdd",
    "broken-bridge": "871e8afe81fb7b25af1301b8fa2f813fbdf4bfbd3cd1763d375a1467972268ab",
    "broken-toggles-vertex": "0188f60038c718448e9f6e7f69d49bc9635d01662ab1c75e5ea160ebd2ef2ee0",
    "first-member-homomesy": "0350627a177eedf4a5fa335ec73b168ce62094d82bb67300e48431ff5b7929d8",
    "homomesy-start": "95ff05540d1e8b3c0dba7e55848f40dfa9dcdb67bf4863e37b7344e2242b8aae",
    "homomesy-tall": "324a3a7e55fad4f8994b9b39bd45c4ded8bc1297ca1b085d9babac927b9bab16",
    "order-start": "cca83ed46600b87b768d3661c03ef6d6a2d203395c6fff23947066f9d18dc73e",
    "order-start-3x3": "8e6db01b538970e9228c86f5ad1eef927a8802415dd95eb5fb5f2af9420ad950",
    "order-tall": "6f4411626e34470ed03ffed1524913e7f481c83927b09844829b25aef39891a1",
    "quotient-start": "74f522eb8ef003afab03440b13380321dd9c232c1ae48ebd43de0eff552908be",
    "quotient-tall": "c5dbe1185bd9d1d4a81950134d26779c1ac417de8eada3e9679ee32e57e6d116",
    "reciprocity-3x4": "0d4632c1ec34c005c8813689731344267bba474216a194da028496d121ac7cb8",
    "reciprocity-4x3": "9fb7f5757f6c95b9f79b228db0d70265c4d26e2b2eb1d31647c20c9675cce63a",
    "reciprocity-start": "c7d7c665b57b3d7ec12908f34f20363284e47d8045c1724b72186d38dd6abdc8",
    "reciprocity-tall": "7704b8b71e53c7059bd975d9c3ecb6747938a6f2138668b325947fa4a23befee",
    "recombination-3x4": "3f9842d796c42a7b84cc81d66ea1fec72846b3bd3da92e43bf8f587dd137315b",
    "recombination-4x3": "1289b31f6ab8582712d233f88293d4c3be9304baf6c25f979100d629edde1e66",
    "recombination-start": "f1d3f213e12c3f5b290bd0207c9e2cde3a955e24fde74c2df36d6ed334dc7eb6",
    "recombination-tall": "2a79e8595e508a4517a0c108509ce7b14f870c32a96e9a776404dc52b133e6f2",
    "reversed-reciprocity": "2526ce756f06548308a560fef4758814f60e3369ed2dd7e2c8bc0ff19ef0c773",
    "reversed-reciprocity-3x4": "d589f98675bd53888679d9fc55d0851d7b69dcf1ecc6eec159f16951d316ddfc",
    "reversed-recombination": "219f7f57cc04248ce9c3bfe7470defc59a581095f2f8c5c6c581bbf18a3a345f",
    "reversed-three-step": "a028d67aedfcae627354bbcb2860f4596a655522645e6e1f24df7c3294a588c7",
    "reversed-three-step-triangle": (
        "896417deccf2570654eae27d262a7d904ba338ff11f0b2daec0ba02557530516"
    ),
    "reversed-vertex": "fb3ea10173742f670cb64a4fca429cb83a7f08528b25f4109f84330f028b4094",
    "three-step-start": "bd027aa3d4251eaeb4744e62cb535247853232987c72897d0298af9b83051b3a",
    "three-step-triangle": "46fc1df19fa2f982a79b4e7360f0d2ce7b8580f03795b1e7ecaefdd09562d83b",
    "three-step-triangle-start": (
        "68017fbcca4d9bd80434b0e6f2eeb7a9a924552d1ced25763f27baf069c7d4e2"
    ),
    "truncated-order": "f8b9bf982c21f5fedf2c2be23649e17f1245b3e8ca42e4f3619579d1ffae3127",
    "truncated-quotient": "3aab8b9690f1973628307c15374d41311885d1214ce2fa61fa552dc5909d5a2e",
    "vertex-tall": "119dc8fabe1b8b4fed803ea4540a65c75551d7405df45806dd3f1eeaf193c52e",
    "vertex-triangle": "a8625e26f3e2d7918f0107cfbbf155a5a99c229b9342ae9427c8c76d76b91e92",
}


def _report(name, mp):
    patch, suite, poset, kwargs = CASES[name]
    if patch is not None:
        patch(mp)
    if poset is None:
        return suite_bridge(**kwargs)
    return SUITES[suite](poset, **kwargs)


def _digest(report):
    return hashlib.sha256(dumps_canonical(report).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, monkeypatch):
    assert _digest(_report(name, monkeypatch)) == DIGESTS[name]


def _kind(check):
    'A check kind: the check name, with no power and no bridge shape in it, and its regime.'
    name = re.sub(r"-\d+x\d+-entries-\d+$", "", check["check"])
    return re.sub(r"-power-\d+-", "-power-N-", name), check["regime"]


def test_every_check_kind_has_a_negative_control():
    clean = [run(WIDE, samples=2, seed=1) for suite, run in SUITES.items() if suite != "bridge"]
    clean.append(suite_bridge(samples=2, seed=1))
    kinds = {_kind(c) for report in clean for c in report["checks"]}
    failed = set()
    for name in CASES:
        with pytest.MonkeyPatch.context() as patcher:
            failed |= {_kind(c) for c in _report(name, patcher)["checks"] if not c["pass"]}
    # The one kind no golden fault fails: the order of rowmotion itself.
    with pytest.MonkeyPatch.context() as patcher:
        order = Poset.__dict__["rowmotion_order"].func
        patcher.setattr(Poset, "rowmotion_order", property(lambda p: order(p)[:-1]))
        report = suite_order(rectangle_poset(2, 3), samples=2, seed=1)
        failed |= {_kind(c) for c in report["checks"] if not c["pass"]}
    assert sorted(kinds - failed) == []


if __name__ == "__main__":
    for case in sorted(CASES):
        with pytest.MonkeyPatch.context() as patcher:
            print(f'    "{case}": "{_digest(_report(case, patcher))}",')
