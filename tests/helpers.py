"""Shared builders for the test suite."""

import inspect
import textwrap

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


def rewrite(old, new):
    """A mutation that compiles a function again, with the first old in
    its source replaced by new, over the globals of its own module."""

    def mutate(part):
        source = textwrap.dedent(inspect.getsource(part))
        assert old in source
        scope = {}
        exec(source.replace(old, new, 1), part.__globals__, scope)
        return scope[part.__name__]

    return mutate
