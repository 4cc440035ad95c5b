"""Exact rational arithmetic.

Every value in the library is an arbitrary-precision rational; floats are
never used.  Rat is fractions.Fraction: it reduces automatically,
compares exactly, and prints as "p/q" (just "p" when the denominator is
1).  BACKEND names it for the environment records of benchmark runs.
"""

from fractions import Fraction

Rat = Fraction
BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def rat(numerator, denominator=None):
    'Build an exact rational from ints, strings, or another rational.'
    return Rat(numerator, denominator)


def parse_rat(text):
    'Parse "p/q" or "p" into an exact rational.'
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        return Rat(text.strip())
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rat(value):
    'Render a rational as reduced "p/q", or "p" when the denominator is 1.'
    return str(value)


def as_integer(value):
    'Return the int a rational equals, or raise if it is not integral.'
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return int(value)
