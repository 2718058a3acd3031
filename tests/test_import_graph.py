"""The package's layering, checked from source.

Module-level imports of ``src/repro`` are parsed with ``ast`` (imports
inside functions are deliberately late and are not edges).  The graph must
have no cycle, and ``repro.runtime`` — the bottom layer, home of the trace
record and of ``OpFold`` — must import nothing from ``repro`` outside
itself.
"""

import ast
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def module_files() -> Dict[str, Path]:
    """``{dotted module name: file}`` for every module under repro."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _top_level_imports(body) -> List[ast.stmt]:
    """Import statements executed at import time: the module body and the
    bodies of top-level ``if``/``try`` blocks, not functions or classes."""
    out: List[ast.stmt] = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.append(node)
        elif isinstance(node, ast.If):
            out += _top_level_imports(node.body) + _top_level_imports(
                node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                out += _top_level_imports(block)
            for handler in node.handlers:
                out += _top_level_imports(handler.body)
    return out


def import_graph() -> Dict[str, Set[str]]:
    """``{module: repro modules it imports at module level}``."""
    files = module_files()
    graph: Dict[str, Set[str]] = {}
    for name, path in files.items():
        is_package = path.name == "__init__.py"
        package = name if is_package else name.rpartition(".")[0]
        edges: Set[str] = set()
        for node in _top_level_imports(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                base = node.module or ""
                if node.level:
                    anchor = package.split(".")
                    anchor = anchor[:len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                # ``from pkg import sub`` imports the submodule when one
                # exists, the package otherwise.
                targets = [
                    "{}.{}".format(base, alias.name)
                    if "{}.{}".format(base, alias.name) in files else base
                    for alias in node.names
                ]
            edges.update(t for t in targets if t in files and t != name)
        graph[name] = edges
    return graph


def find_cycle(graph: Dict[str, Set[str]]) -> List[str]:
    """One import cycle as a module path, or ``[]``."""
    state: Dict[str, int] = {}  # 1 on the DFS stack, 2 finished
    stack: List[str] = []

    def visit(node: str) -> List[str]:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph[node]):
            if state.get(nxt) == 1:
                return stack[stack.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = 2
        return []

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return []


def test_graph_covers_the_package():
    graph = import_graph()
    assert "repro.runtime.trace" in graph
    assert "repro.runtime.trace" in graph["repro.obs.spans"]
    assert "repro.runtime.trace" in graph["repro.verify.oracles"]


def test_module_level_imports_have_no_cycle():
    assert find_cycle(import_graph()) == []


def test_cycle_finder_reports_a_cycle():
    graph = {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": set()}
    assert find_cycle(graph) == ["a", "b", "c", "a"]


def test_runtime_imports_nothing_above_it():
    upward = {
        name: sorted(t for t in edges if not t.startswith("repro.runtime"))
        for name, edges in import_graph().items()
        if name.startswith("repro.runtime")
    }
    assert {name: ups for name, ups in upward.items() if ups} == {}
