"""Bitset kernels for the combinatorial regime.

pybitops is the only kernel.  HAVE_COMPILED and kernel_for() stay
because perfbench/run.py reads both for the environment record it
prints with every result.
"""

from . import pybitops

HAVE_COMPILED = False


def kernel_for(size):
    'The kernel module for a poset with this many elements: always pybitops.'
    return pybitops
