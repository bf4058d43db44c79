"""Allocation budgets of the stack kernels, in sizes of a stack.

A budget test calls :func:`peak_stacks` and compares the result with a bound
about half a stack above the measured peak, which the kernel meets and a
version holding one more stack-sized temporary would not.
"""

import tracemalloc

import numpy as np


def peak_stacks(fn, stack: np.ndarray) -> float:
    """Peak of the memory that ``fn()`` allocates, numpy arrays included, in
    units of ``stack.nbytes``; one untraced call first settles any lazy
    set-up (caches, imports), and memory live before the traced call does
    not count."""
    fn()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / stack.nbytes
    finally:
        tracemalloc.stop()
