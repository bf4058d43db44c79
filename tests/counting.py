"""Call counts of a ``symporder.matrices`` kernel, summed over every binding.

A module that imports a kernel by name (``from .matrices import
commutes_with_j``) holds its own binding, so wrapping the kernel in one
module misses the calls made through another.  :func:`count_calls` wraps
every binding at once.
"""

import sys

import numpy as np

from symporder import matrices


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``symporder.matrices.<name>`` in every loaded ``symporder``
    module that binds that name; return the list that records the shape of
    each call's first argument, in call order."""
    original = getattr(matrices, name)
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if (module_name.partition(".")[0] == "symporder"
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls
