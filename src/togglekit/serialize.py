"""JSON encoding and decoding for posets, ideals, arrays, and tableaux.

Rationals travel as reduced "p/q" strings so files are exact.
dumps_canonical fixes key order and spacing, which makes reports
byte-identical across runs with the same inputs.
"""

import json

from .posets import OrderIdeal, Poset, PosetError, _is_int, sorted_indices
from .rational import parse_rat
from .tableaux import MAX_ENTRY, GtPattern, Tableau, TableauError

# Largest size a poset file may declare.  A poset without rc builds a
# size x size bit table to check that its covers are irredundant.
MAX_POSET_SIZE = 20000


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def _label_from_json(obj):
    return tuple(obj) if isinstance(obj, list) else obj


def _is_label(value):
    if isinstance(value, list):
        return all(_is_int(v) or isinstance(v, str) for v in value)
    return _is_int(value) or isinstance(value, str)


def _check_poset_json(obj):
    'Raise a one-line PosetError unless obj has the shape poset_to_json writes.'
    if not isinstance(obj, dict):
        raise PosetError("poset JSON must be an object with size, covers and labels")
    missing = [key for key in ("size", "covers", "labels") if key not in obj]
    if missing:
        raise PosetError(f"poset JSON lacks {', '.join(missing)}")
    if not _is_int(obj["size"]):
        raise PosetError("poset size must be an integer")
    if obj["size"] > MAX_POSET_SIZE:
        raise PosetError(f"poset size {obj['size']} is above the limit of {MAX_POSET_SIZE}")
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(_is_label(lab) for lab in labels):
        raise PosetError("poset labels must be strings, integers, or lists of them")
    shape = obj.get("rectangle")
    if shape is not None and not (
        isinstance(shape, list) and len(shape) == 2 and all(map(_is_int, shape))
    ):
        raise PosetError("poset rectangle must be a pair of integers")


def poset_to_json(poset):
    out = {
        "size": poset.size,
        "labels": [_label_to_json(lab) for lab in poset.labels],
        "covers": [list(pair) for pair in poset.covers],
    }
    if poset.rc is not None:
        out["rc"] = [list(pos) for pos in poset.rc]
    if poset.rectangle_shape is not None:
        out["rectangle"] = list(poset.rectangle_shape)
    return out


def poset_from_json(obj):
    _check_poset_json(obj)
    shape = obj.get("rectangle")
    poset = Poset(
        obj["size"],
        obj["covers"],
        labels=[_label_from_json(lab) for lab in obj["labels"]],
        rc=obj.get("rc"),
    )
    # The shape is derived from the poset; a claimed one must agree.
    if shape is not None and tuple(shape) != poset.rectangle_shape:
        raise PosetError(
            f"poset rectangle {shape} does not match its size, covers, labels and rc"
        )
    return poset


def ideal_to_json(ideal):
    return list(sorted_indices(ideal.mask))


def ideal_from_json(poset, obj):
    if not isinstance(obj, list):
        raise PosetError("ideal JSON must be a list of integer element indices")
    return OrderIdeal(poset, obj)


def array_to_json(alg, f):
    'The values of f and the boundary pair of alg, the algebra it is walked under.'
    return {
        "values": [str(v) for v in f.values],
        "boundary": [str(v) for v in alg.boundary],
    }


def array_from_json(alg, poset, obj):
    'The array of a file written under alg; a file with another boundary is refused.'
    keys = ("boundary", "values")
    if not (isinstance(obj, dict) and all(isinstance(obj.get(k), list) for k in keys)):
        raise ValueError("array JSON must be an object with boundary and values lists")
    boundary = [parse_rat(v) for v in obj["boundary"]]
    if boundary != list(alg.boundary):
        got, want = (", ".join(map(str, pair)) for pair in (boundary, alg.boundary))
        raise ValueError(f"array boundary ({got}) is not the {alg.name} boundary ({want})")
    return alg.array(poset, [parse_rat(v) for v in obj["values"]])


def tableau_to_json(tableau):
    return {
        "rows": [list(row) for row in tableau.rows],
        "max_entry": tableau.max_entry,
    }


def tableau_from_json(obj):
    if not isinstance(obj, dict) or "rows" not in obj or "max_entry" not in obj:
        raise TableauError("tableau JSON must be an object with rows and max_entry")
    if not _is_int(obj["max_entry"]):
        raise TableauError("tableau max_entry must be an integer")
    if obj["max_entry"] > MAX_ENTRY:
        raise TableauError(
            f"tableau max_entry {obj['max_entry']} is above the limit of {MAX_ENTRY}"
        )
    return Tableau(obj["rows"], obj["max_entry"])


def pattern_to_json(pattern):
    return {"rows": [list(row) for row in pattern.rows]}


def pattern_from_json(obj):
    rows = obj.get("rows") if isinstance(obj, dict) else None
    if not isinstance(rows, list):
        raise TableauError("pattern JSON must be an object with rows of integers")
    return GtPattern(rows)


def dumps_canonical(obj):
    'Deterministic JSON text: sorted keys, two-space indent, trailing newline.'
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
