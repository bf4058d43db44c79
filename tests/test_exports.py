"""The package's export list matches what ``__init__`` imports.

A name deleted from a module but left in ``__all__`` breaks ``from symporder
import *``; a name imported into ``__init__`` but left out of ``__all__`` is
exported by accident.
"""

import ast
import inspect

import symporder


def test_every_export_resolves():
    missing = [name for name in symporder.__all__ if not hasattr(symporder, name)]
    assert missing == []
    assert len(set(symporder.__all__)) == len(symporder.__all__)


def test_every_public_name_imported_by_init_is_exported():
    tree = ast.parse(inspect.getsource(symporder))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public and sorted(public - set(symporder.__all__)) == []
