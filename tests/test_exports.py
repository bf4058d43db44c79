"""The package's export list is its table of home modules, and every name
resolves to the object its home module defines.

``__init__`` binds each exported name on first use from the module the table
names, so a name deleted from a module but left in the table breaks ``from
symporder import *`` and ``symporder.<name>``.
"""

import importlib

import symporder
from children import run_python


def test_every_export_resolves():
    missing = [name for name in symporder.__all__ if not hasattr(symporder, name)]
    assert missing == []
    assert len(set(symporder.__all__)) == len(symporder.__all__)


def test_every_public_name_imported_by_init_is_exported():
    table = [(name, module) for module, names in symporder._EXPORTS.items()
             for name in names]
    assert symporder.__all__ == sorted(name for name, _ in table)
    for name, module in table:
        home = importlib.import_module(f"symporder.{module}")
        assert getattr(symporder, name) is getattr(home, name), name
        assert getattr(symporder, module) is home
    assert set(symporder.__all__) <= set(dir(symporder))


def test_star_import_binds_every_export():
    # a fresh process, so that no earlier access has bound a name already
    script = "\n".join([
        "import symporder",
        "namespace = {}",
        "exec('from symporder import *', namespace)",
        "missing = sorted(set(symporder.__all__) - set(namespace))",
        "assert missing == [], missing",
        "assert all(namespace[name] is getattr(symporder, name) for name in symporder.__all__)",
    ])
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
