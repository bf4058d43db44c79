"""Exception taxonomy shared by the library and the command line tool."""

import math
import operator


class InputError(ValueError):
    """Raised when an argument is malformed or outside an operation's domain."""


class ComputationError(RuntimeError):
    """Raised when a computation cannot be completed at the requested accuracy."""


class ResolutionError(ComputationError):
    """Raised when a path's samples cannot resolve its winding or its steps."""


# an error quotes a longer token by this many characters and its length
QUOTE_CHARS = 40
# a file name, or a message an error passes on, is echoed bare up to the
# longest name of one directory entry (NAME_MAX on Linux file systems)
ECHO_CHARS = 255


def quote(value) -> str:
    """``repr(value)``, or when its text (the string itself, else its repr)
    is longer than ``QUOTE_CHARS``, the repr of that text's first
    ``QUOTE_CHARS`` characters and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= QUOTE_CHARS:
        return repr(value)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"


def echo(text: str) -> str:
    """``text`` itself up to ``ECHO_CHARS`` characters, else :func:`quote` of it."""
    return text if len(text) <= ECHO_CHARS else quote(text)


def integer(value, name: str) -> int:
    """``value`` as an int if it is a Python or numpy integer, else an InputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {quote(value)}") from None


def finite(value: float, name: str) -> float:
    """``value`` if it is a finite number, else a ComputationError naming it."""
    if not math.isfinite(value):
        raise ComputationError(f"{name} is not a finite number ({value})")
    return value
