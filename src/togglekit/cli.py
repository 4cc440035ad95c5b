"""Command line: orbit listings, verification suites, tableau tools.

Each command returns (status, doc, lines): its exit status, the document
that --json prints, and the text lines printed without it.  main prints
one of the two and returns the status.

Exit codes: 0 success, 1 a dynamical invariant failed (or an orbit hit
the iteration cap), 2 configuration or input errors.
"""

import argparse
import json
import os
import sys
from itertools import groupby

from .dynamics import ALGEBRAS, MAPS, PL, promotion, step_map
from .orbits import OrbitError, orbit
from .posets import OrderIdeal, PosetError, rectangle_poset
from .rational import parse_rat
from .serialize import (
    MAX_POSET_SIZE,
    array_to_json,
    dumps_canonical,
    pattern_to_json,
    poset_from_json,
    poset_to_json,
    tableau_from_json,
    tableau_to_json,
)
from .tableaux import TableauError, tableau_promotion, tableau_to_array, tableau_to_pattern
from .verify import SUITES

TWO_BY_TWO_ALIASES = {"w": (1, 1), "x": (2, 1), "y": (1, 2), "z": (2, 2)}

REGIMES = ("combinatorial", *ALGEBRAS)


def _parse_shape(text, form="AxB"):
    'The positive ints of a shape written as form, AxB or AxBxN.'
    try:
        numbers = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        numbers = ()
    if len(numbers) != len(form.split("x")) or any(n < 1 for n in numbers):
        raise ValueError(f"bad shape {text!r}; expected {form}")
    return numbers


def _resolve_poset(args):
    if args.shape and args.poset:
        raise ValueError("pass --shape or --poset, not both")
    if args.shape:
        a, b = _parse_shape(args.shape)
        if a * b > MAX_POSET_SIZE:
            raise ValueError(
                f"shape {a}x{b}: poset size {a * b} is above the limit of {MAX_POSET_SIZE}"
            )
        return rectangle_poset(a, b)
    if args.poset:
        with open(args.poset) as handle:
            return poset_from_json(json.load(handle))
    raise ValueError("a poset is required: pass --shape AxB or --poset FILE")


def _display_labels(poset):
    if poset.rectangle_shape == (2, 2):
        order = {v: k for k, v in TWO_BY_TWO_ALIASES.items()}
        return [order[lab] for lab in poset.labels]
    return [
        ".".join(str(part) for part in lab) if isinstance(lab, tuple) else str(lab)
        for lab in poset.labels
    ]


def _element_index(poset, token):
    if poset.rectangle_shape == (2, 2) and token in TWO_BY_TWO_ALIASES:
        return poset.index_of(TWO_BY_TWO_ALIASES[token])
    if "." in token:
        parts = token.split(".")
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            return poset.index_of((int(parts[0]), int(parts[1])))
    if token.lstrip("-").isdigit():
        index = int(token)
        if not 0 <= index < poset.size:
            raise ValueError(f"element index {index} outside 0..{poset.size - 1}")
        return index
    return poset.index_of(token)


def _parse_start(poset, regime, text):
    if regime == "combinatorial":
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        members = {_element_index(poset, t) for t in tokens}
        for x in sorted(members):
            missing = [lo for lo in poset.lower_covers[x] if lo not in members]
            if missing:
                labels = _display_labels(poset)
                raise ValueError(
                    f"start {_format_ideal(sorted(members), labels)} is not down-closed: "
                    f"it holds {labels[x]} but not {labels[missing[0]]}, which {labels[x]} covers"
                )
        return OrderIdeal(poset, members)
    values = [parse_rat(t) for t in text.split(",")]
    if len(values) != poset.size:
        raise ValueError(f"{len(values)} values for {poset.size} elements")
    return values


def _format_values(values):
    return "(" + ",".join(str(v) for v in values) + ")"


def _format_ideal(indices, labels):
    return "{" + ",".join(labels[i] for i in indices) + "}"


def _text(rows):
    return [" ".join(str(v) for v in row) for row in rows]


def _check_cap(args):
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")


def cmd_orbit(args):
    _check_cap(args)
    poset = _resolve_poset(args)
    labels = _display_labels(poset)
    start = _parse_start(poset, args.regime, args.start)
    if args.regime == "combinatorial":
        record = orbit(MAPS[args.map][0], start, cap=args.cap)
        states = [list(state.indices) for state in record]
        lines = [_format_ideal(state, labels) for state in states]
    else:
        alg = ALGEBRAS[args.regime]
        record = orbit(step_map(alg, args.map), alg.array(poset, start), cap=args.cap)
        states = [[str(v) for v in state.values] for state in record]
        lines = [_format_values(state) for state in states]
    doc = {
        "regime": args.regime,
        "map": args.map,
        "poset": poset_to_json(poset),
        "states": states,
        "period": record.period,
    }
    return 0, doc, ["# elements: " + ",".join(labels), *lines, f"period: {record.period}"]


def cmd_verify(args):
    runner = SUITES[args.suite]
    _check_cap(args)
    if args.samples is not None and args.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {args.samples}")
    seed, env_seed = args.seed, os.environ.get("TOGGLEKIT_SEED")
    if seed is None and env_seed:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValueError(f"TOGGLEKIT_SEED must be an integer, got {env_seed!r}") from None
    kwargs = {"seed": seed}
    if args.suite == "homomesy":
        kwargs["cap"] = args.cap
    if args.samples is not None:
        kwargs["samples"] = args.samples
    if args.suite == "bridge":
        if args.poset:
            raise ValueError("the bridge suite takes --shape AxBxN, not --poset")
        if args.start:
            raise ValueError("the bridge suite does not take --start")
        if args.shape:
            kwargs["shapes"] = (_parse_shape(args.shape, "AxBxN"),)
        report = runner(**kwargs)
    else:
        poset = _resolve_poset(args)
        if args.start:
            if args.suite == "vertex":
                raise ValueError("the vertex suite does not take --start")
            kwargs["start"] = _parse_start(poset, "birational", args.start)
        report = runner(poset, **kwargs)
    seed_note = "entropy" if report["seed"] is None else report["seed"]
    lines = [f"suite: {report['suite']}  seed: {seed_note}"]
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(f"{status} {check['check']} [{check['regime']}] ({check['inputs']} inputs)")
        lines += (
            f"     counterexample: {json.dumps(violation, sort_keys=True)}"
            for violation in check["violations"]
        )
    lines.append("result: " + ("pass" if report["pass"] else "fail"))
    return (0 if report["pass"] else 1), report, lines


def _rank_rows(f):
    'Rows of the array by rank, top rank first, high column first inside a row.'
    ranks, rc = f.poset.ranks, f.poset.rc
    order = sorted(range(f.poset.size), key=lambda i: (-ranks[i], -rc[i][0]))
    return [[f.values[i] for i in row] for _, row in groupby(order, key=ranks.__getitem__)]


def cmd_tableau(args):
    if args.input:
        with open(args.input) as handle:
            data = json.load(handle)
    else:
        data = json.load(sys.stdin)
    tableau = tableau_from_json(data)
    if args.action == "to-gt":
        pattern = tableau_to_pattern(tableau)
        return 0, pattern_to_json(pattern), _text(pattern.rows)
    if args.action == "to-array":
        f = tableau_to_array(tableau)
        lines = [
            "# elements: " + ",".join(_display_labels(f.poset)),
            "# values: " + _format_values(f.values),
            *_text(_rank_rows(f)),
        ]
        return 0, {"poset": poset_to_json(f.poset), "array": array_to_json(PL, f)}, lines
    if args.action == "promote":
        advanced = tableau_promotion(tableau)
        return 0, tableau_to_json(advanced), _text(advanced.rows)
    left = tableau_to_array(tableau_promotion(tableau))
    right = promotion(PL, tableau_to_array(tableau))
    equal = left == right
    doc = {
        "left": [str(v) for v in left.values],
        "right": [str(v) for v in right.values],
        "equal": equal,
    }
    lines = [
        "left:  " + _format_values(left.values),
        "right: " + _format_values(right.values),
        "equal: " + ("true" if equal else "false"),
    ]
    return (0 if equal else 1), doc, lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="togglekit",
        description="Exact toggle dynamics on posets: orbits, verification, tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit_p = sub.add_parser("orbit", help="iterate a map and print the orbit")
    orbit_p.add_argument("--regime", choices=REGIMES, required=True)
    orbit_p.add_argument("--map", choices=MAPS, default="rowmotion")
    orbit_p.add_argument("--shape", help="rectangle AxB")
    orbit_p.add_argument("--poset", help="poset JSON file")
    orbit_p.add_argument(
        "--start",
        required=True,
        help="comma-separated rationals, or ideal members for the combinatorial regime",
    )
    orbit_p.add_argument("--cap", type=int, default=1000)
    orbit_p.add_argument("--json", action="store_true")
    orbit_p.set_defaults(func=cmd_orbit)

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", choices=sorted(SUITES))
    verify_p.add_argument("--shape", help="rectangle AxB (bridge: AxBxN)")
    verify_p.add_argument("--poset", help="poset JSON file")
    verify_p.add_argument("--samples", type=int)
    verify_p.add_argument("--seed", type=int, help="defaults to TOGGLEKIT_SEED")
    verify_p.add_argument("--start", help="check one explicit array instead of samples")
    verify_p.add_argument("--cap", type=int, default=1000)
    verify_p.add_argument("--json", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    tableau_p = sub.add_parser("tableau", help="tableau conversions and checks")
    tableau_p.add_argument(
        "action", choices=("to-gt", "to-array", "promote", "bridge-check")
    )
    tableau_p.add_argument("--input", help="tableau JSON file (default: stdin)")
    tableau_p.add_argument("--json", action="store_true")
    tableau_p.set_defaults(func=cmd_tableau)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse drops a "--" value, so "--cap=--" parses to []; no option takes a list.
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name}: expected one argument")
    try:
        status, doc, lines = args.func(args)
        # Inside the try: a reader that closes the pipe early is an OSError.
        sys.stdout.write(dumps_canonical(doc) if args.json else "\n".join(lines) + "\n")
    except OrbitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PosetError, TableauError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
