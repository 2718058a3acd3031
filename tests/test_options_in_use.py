"""Every defaulted parameter under ``src/repro`` is one the program sets.

A parameter with a default is an option: each one the program carries is
another configuration its differential checks would have to cover.  An
option no call passes is a constant under another name, so the first
audit fails until it becomes one.  An option only tests or examples pass
is a configuration no campaign, experiment or CLI verb reaches, so the
second audit, which counts only the program's own callers (``src/``,
``benchmarks/`` and ``verdictbench/``), fails on each one not in
:data:`KEPT` with a reason.

How the audit counts, from source with ``ast``:

- it walks every ``def`` under ``src/repro``, nested ones included, but
  not ``__init__`` methods (constructor knobs are decided one by one);
- a parameter is *set* when at least one call whose callee name matches
  the ``def`` (``f(...)`` or ``x.f(...)``) passes it by keyword or by
  position, in ``src/``, ``tests/``, ``benchmarks/``, ``examples/`` or
  ``verdictbench/``;
- a call that spreads ``*args`` or ``**kwargs`` counts as setting every
  parameter;
- a closure-capture default (``x=x``) is not an option.

The caller directories are only read, never written.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tests", "benchmarks", "examples", "verdictbench")
#: The callers that make an option part of the program.
PROGRAM_DIRS = ("src", "benchmarks", "verdictbench")

_SEEDED = ("the load engine calls it as ARRIVALS[name](rate, seed), which "
           "a name-based audit cannot see")
_DIFFERENTIAL = ("the faulted online-vs-offline and trace-retention "
                 "differentials drive it")
#: ``"path function(param)"`` -> why an option no program caller sets
#: stays an option.
KEPT = {
    "src/repro/explore/targets.py build_and_run(fault_plan)": _DIFFERENTIAL,
    "src/repro/explore/targets.py build_and_run(sink)": _DIFFERENTIAL,
    "src/repro/load/arrivals.py poisson(seed)": _SEEDED,
    "src/repro/load/arrivals.py bursty(seed)": _SEEDED,
    "src/repro/load/arrivals.py diurnal(seed)": _SEEDED,
}


def _python_files(top: Path) -> List[Path]:
    return sorted(top.rglob("*.py")) if top.is_dir() else []


def _is_method(node: ast.AST, parent: ast.AST) -> bool:
    """A ``def`` whose first parameter the call site does not pass."""
    if not isinstance(parent, ast.ClassDef):
        return False
    names = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
    return "staticmethod" not in names


def _defs(tree: ast.AST) -> Iterator[Tuple[ast.AST, bool]]:
    """Every ``def`` in ``tree`` with whether it is a bound method."""
    stack = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _is_method(node, parent)
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))


def _options(node: ast.AST, method: bool) -> List[Tuple[str, int]]:
    """``(name, position or -1)`` for each defaulted parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and positional else 0
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, (arg, default) in enumerate(
            zip(positional[first_default:], args.defaults)):
        if not (isinstance(default, ast.Name) and default.id == arg.arg):
            out.append((arg.arg, first_default + i - skip))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and not (
                isinstance(default, ast.Name) and default.id == arg.arg):
            out.append((arg.arg, -1))
    return out


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _set_by_calls(
        caller_dirs: Tuple[str, ...]) -> Dict[str, Tuple[Set[str], int, bool]]:
    """``{callee name: (keywords passed, most positionals, spreads)}``."""
    seen: Dict[str, Tuple[Set[str], int, bool]] = defaultdict(
        lambda: (set(), 0, False))
    for top in caller_dirs:
        for path in _python_files(ROOT / top):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                name = _callee(call)
                keywords, most, spreads = seen[name]
                spreads = spreads or any(
                    isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords)
                keywords |= {k.arg for k in call.keywords if k.arg}
                seen[name] = (keywords, max(most, len(call.args)), spreads)
    return seen


def unset_options(caller_dirs: Tuple[str, ...] = CALLER_DIRS) -> List[str]:
    """``path:line function(param)`` for each option no call in
    ``caller_dirs`` sets."""
    calls = _set_by_calls(caller_dirs)
    unset = []
    for path in _python_files(ROOT / "src" / "repro"):
        for node, method in _defs(ast.parse(path.read_text())):
            if node.name == "__init__" and method:
                continue
            keywords, most, spreads = calls.get(
                node.name, (set(), 0, False))
            if spreads:
                continue
            for name, position in _options(node, method):
                if name not in keywords and not 0 <= position < most:
                    unset.append("{}:{} {}({})".format(
                        path.relative_to(ROOT), node.lineno, node.name,
                        name))
    return sorted(unset)


def program_unset_options() -> Set[str]:
    """``path function(param)`` for each option no program call sets."""
    return {re.sub(r":\d+ ", " ", entry)
            for entry in unset_options(PROGRAM_DIRS)}


def test_every_option_is_set_by_some_call():
    unset = unset_options()
    assert not unset, (
        "{} defaulted parameters no call sets; make each a constant:\n  "
        .format(len(unset)) + "\n  ".join(unset))


def test_every_test_only_option_is_kept_for_a_reason():
    test_only = sorted(program_unset_options() - set(KEPT))
    assert not test_only, (
        "{} defaulted parameters only tests or examples set; make each a "
        "constant, or add it to KEPT with a reason:\n  ".format(
            len(test_only)) + "\n  ".join(test_only))


def test_every_kept_entry_is_still_a_test_only_option():
    stale = sorted(set(KEPT) - program_unset_options())
    assert not stale, (
        "KEPT names options that no longer exist or that the program now "
        "sets; drop them:\n  " + "\n  ".join(stale))


def test_audit_sees_an_unset_option(tmp_path, monkeypatch):
    """The audit flags a fresh option, counts a test-only one as unset by
    the program, and ignores closure captures."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "def f(a, knob=1, *, flag=False, used=2, x=x):\n"
        "    return a\n"
        "class C:\n"
        "    def g(self, depth=3, width=4):\n"
        "        return f(1, used=3)\n"
        "C().g(5)\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text("f(0, knob=2)\n")
    monkeypatch.setitem(globals(), "ROOT", tmp_path)
    assert unset_options() == [
        "src/repro/m.py:1 f(flag)",
        "src/repro/m.py:4 g(width)",
    ]
    assert program_unset_options() == {
        "src/repro/m.py f(flag)",
        "src/repro/m.py f(knob)",
        "src/repro/m.py g(width)",
    }
