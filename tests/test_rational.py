import sys
from fractions import Fraction

import pytest

from togglekit.rational import (
    BACKEND,
    ONE,
    ZERO,
    Rat,
    as_integer,
    parse_rat,
)


def test_backend_is_a_known_implementation():
    assert BACKEND == "fractions"
    assert Rat is Fraction


def test_constants():
    assert ZERO == Rat(0)
    assert ONE == Rat(1)
    assert ZERO + ONE == ONE


def test_parse_rat():
    assert parse_rat("5/12") == Rat(5, 12)
    assert parse_rat(" 3 ") == Rat(3)
    assert parse_rat("-7/2") == Rat(-7, 2)
    assert parse_rat("1.5e3") == Rat(1500)
    assert parse_rat("1_000") == Rat(1000)
    assert parse_rat(" 3/4 ") == Rat(3, 4)


def test_parse_rat_refuses_values_str_could_not_print():
    limit = sys.get_int_max_str_digits()
    assert str(parse_rat(f"1e{limit - 1}")) == "1" + "0" * (limit - 1)
    assert parse_rat(f"1E-{limit - 1}") == Rat(1, 10 ** (limit - 1))
    assert parse_rat("2e0_000_000_000_003") == Rat(2000)
    huge = (f"1e{limit}", f"1e-{limit}", f"123e{limit - 1}", "1e4000000", "2.5E+" + "9" * 5000)
    for text in huge:
        with pytest.raises(ValueError, match="not a rational"):
            parse_rat(text)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1.5.2", None])
def test_parse_rat_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_str_is_reduced():
    assert str(Rat(5, 10)) == "1/2"
    assert str(Rat(6, 2)) == "3"
    assert str(Rat(-3, 9)) == "-1/3"


def test_parse_format_round_trip():
    for text in ("0", "1", "5/12", "-7/3", "1000000000000/7"):
        assert str(parse_rat(text)) == text


def test_as_integer():
    assert as_integer(Rat(6, 2)) == 3
    assert isinstance(as_integer(Rat(4)), int)
    with pytest.raises(ValueError):
        as_integer(Rat(1, 2))


def test_exact_arithmetic_has_no_drift():
    total = ZERO
    for _ in range(300):
        total += Rat(1, 3)
    assert total == Rat(100)
