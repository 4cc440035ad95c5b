"""Shared builders for the test suite."""

from togglekit import BIRATIONAL, PL, Rat
from togglekit.posets import rectangle_poset


def rats(*texts):
    'Tuple of exact rationals from "p/q" strings or ints.'
    return tuple(Rat(t) for t in texts)


def pl_array(poset, *texts):
    return PL.array(poset, rats(*texts))


def bir_array(poset, *texts):
    return BIRATIONAL.array(poset, rats(*texts))


def grid22():
    return rectangle_poset(2, 2)


def grid23():
    return rectangle_poset(2, 3)
