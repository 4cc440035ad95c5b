"""Exact rational arithmetic.

Every value in the library is an arbitrary-precision rational; floats are
never used.  Rat is fractions.Fraction: it reduces automatically,
compares exactly, and prints as "p/q" (just "p" when the denominator is
1).  BACKEND names it for the environment records of benchmark runs.
"""

import sys
from fractions import Fraction

Rat = Fraction
BACKEND = "fractions"

ZERO = Rat(0)
ONE = Rat(1)


def rat(numerator, denominator=None):
    'Build an exact rational from ints, strings, or another rational.'
    return Rat(numerator, denominator)


def parse_rat(text):
    """Parse "p/q", "p" or a decimal such as "1.5e3" into an exact rational.

    A value with more digits than str() may print
    (sys.get_int_max_str_digits()) is refused, and an exponent above that
    limit is refused before the power of ten is built: building 10**e
    alone takes seconds for large e.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    _, mark, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits()
    if mark and limit and digits.isdecimal():
        if len(digits) > len(str(limit)) or int(digits) > limit:
            raise ValueError(f"not a rational: {text!r} (exponent too large)")
    try:
        value = Rat(text.strip())
        format_rat(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    return value


def format_rat(value):
    'Render a rational as reduced "p/q", or "p" when the denominator is 1.'
    return str(value)


def as_integer(value):
    'Return the int a rational equals, or raise if it is not integral.'
    if value.denominator != 1:
        raise ValueError(f"{value} is not an integer")
    return int(value)
