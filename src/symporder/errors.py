"""Exception taxonomy shared by the library and the command line tool."""

import math


class InputError(ValueError):
    """Raised when an argument is malformed or outside an operation's domain."""


class ComputationError(RuntimeError):
    """Raised when a computation cannot be completed at the requested accuracy."""


class ResolutionError(ComputationError):
    """Raised when grid refinement hits its cap before winding steps resolve."""


def finite(value: float, name: str) -> float:
    """``value`` if it is a finite number, else a ComputationError naming it."""
    if not math.isfinite(value):
        raise ComputationError(f"{name} is not a finite number ({value})")
    return value
