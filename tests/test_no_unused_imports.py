"""No module under ``src/repro`` or ``tests`` imports a name it never uses.

An ``ast`` scan stands in for a linter's F401 check.  A name counts as
used when it appears anywhere in the module as an identifier, inside a
string annotation, or in ``__all__`` (assigned or extended with ``+=``).
An import line marked ``# noqa: F401`` is exempt: it imports for the side
effect or to prove the name importable.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src/repro", "tests")
MARKER = "noqa: F401"


def _python_files():
    for top in SCANNED:
        for root, _dirs, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _string_names(node):
    """Identifiers inside a string annotation such as ``"Candidate"``."""
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return set()
    try:
        parsed = ast.parse(node.value, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                used |= _string_names(part)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets):
            used.update(e.value for e in getattr(node.value, "elts", ())
                        if isinstance(e, ast.Constant))
    return used


def unused_imports(source):
    """``(line, name)`` of every import in ``source`` the module never
    uses, except ``__future__`` imports and lines marked ``noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name == "*" or name in used:
                continue
            if MARKER in lines[node.lineno - 1] or \
                    MARKER in lines[alias.lineno - 1]:
                continue
            found.append((alias.lineno, name))
    return found


def test_the_scan_flags_only_unused_unmarked_imports():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import (  # noqa: F401\n"
        "    Any,\n"
        ")\n"
        "from typing import Dict, List, Optional\n"
        "from json import dumps\n"
        "from json import loads\n"
        "__all__ = ['dumps']\n"
        "__all__ += ['loads']\n"
        "def f(x: 'Optional[int]') -> Dict:\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(1, "os"), (6, "List")]


def test_no_unused_imports():
    offenders = []
    for path in _python_files():
        with open(path) as fh:
            source = fh.read()
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        offenders.extend("{}:{} {}".format(rel, line, name)
                         for line, name in unused_imports(source))
    assert offenders == []
