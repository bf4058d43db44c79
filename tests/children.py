"""Child Python processes for the tests that run code in a fresh interpreter.

Every child runs with ``-W error::RuntimeWarning``, so a numpy overflow or
invalid operation fails a child the way the suite's ``filterwarnings`` makes
it fail in process.
"""

import subprocess
import sys


def run_python(args, text: bool = True, **kwargs) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning *args``, with stdout and stderr captured."""
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          capture_output=True, text=text, **kwargs)
