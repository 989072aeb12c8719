"""Every top-level import in the package is used.

An import no code reads misleads a reader about what a module depends
on.  A name a module imports counts as used when the module reads it
(an ``ast.Name``, attribute chains included) or lists it in
``__all__``.  ``__init__`` modules exist to re-export and are skipped.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _exported(tree):
    """The names a module's ``__all__`` lists."""
    names = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return names


def unused_imports(source):
    """``(line, name)`` of each top-level import ``source`` never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    used |= _exported(tree)
    return sorted(
        (line, name) for name, line in bound.items() if name not in used
    )


def test_the_scan_flags_what_no_code_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import copy as _copy\n"
        "from typing import List, Optional\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: Optional[int]) -> str:\n"
        "    return os.path.join('a', str(x))\n"
    )
    assert unused_imports(source) == [(3, "_copy"), (4, "List")]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        path.relative_to(SRC).as_posix(): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for unused in [unused_imports(path.read_text())]
        if unused
    }
    assert found == {}
