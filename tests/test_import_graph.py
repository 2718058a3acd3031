"""The package's layering, checked from source.

Module-level imports of ``src/repro`` are parsed with ``ast``.  The graph
must have no cycle, also once each dotted import adds the parent packages
it runs; ``repro.runtime`` — the bottom layer, home of the trace record
and of ``OpFold`` — must import nothing from ``repro`` outside itself, and
``repro.obs`` may import only ``repro.runtime`` and ``repro.core``.  The
problem suite drives ``obs`` from above, through ``repro.suite``.  An
import inside a function is not an edge, so none is allowed (DESIGN.md
§5).
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


def _package_of(name: str, path: Path) -> str:
    """The package relative imports in ``path`` resolve against."""
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _from_base(node: ast.ImportFrom, package: str) -> str:
    """The absolute module a ``from ... import`` statement names."""
    base = node.module or ""
    if node.level:
        anchor = package.split(".")
        anchor = anchor[:len(anchor) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    return base


def import_graph() -> Dict[str, Set[str]]:
    """``{module: repro modules it imports at module level}``."""
    files = module_files()
    graph: Dict[str, Set[str]] = {}
    for name, path in files.items():
        package = _package_of(name, path)
        edges: Set[str] = set()
        for node in _top_level_imports(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                base = _from_base(node, package)
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


def package_graph() -> Dict[str, Set[str]]:
    """:func:`import_graph` plus the packages a dotted import executes.

    ``from ..verify.oracles import x`` runs ``repro/verify/__init__.py``
    before ``oracles``, so the importer also depends on ``repro.verify``.
    The importer's own ancestor packages are already executing and add no
    edge.
    """
    graph = import_graph()
    out: Dict[str, Set[str]] = {}
    for name, edges in graph.items():
        parts = name.split(".")
        ancestors = {".".join(parts[:i]) for i in range(1, len(parts))}
        executed: Set[str] = set()
        for target in edges:
            dotted = target.split(".")
            executed.update(".".join(dotted[:i])
                            for i in range(1, len(dotted) + 1))
        out[name] = {t for t in executed
                     if t in graph and t != name and t not in ancestors}
    return out


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


def test_obs_imports_only_runtime_and_core():
    allowed = ("repro.obs", "repro.runtime", "repro.core")
    upward = {
        name: sorted(t for t in edges if not t.startswith(allowed))
        for name, edges in import_graph().items()
        if name.startswith("repro.obs")
    }
    assert {name: ups for name, ups in upward.items() if ups} == {}


def test_checker_layer_imports_only_runtime():
    layer = {"repro.verify", "repro.verify.oracles", "repro.verify.liveness",
             "repro.verify.registry", "repro.verify.detectors"}
    upward = {
        name: sorted(t for t in edges
                     if t not in layer and not t.startswith("repro.runtime"))
        for name, edges in package_graph().items() if name in layer
    }
    assert {name: ups for name, ups in upward.items() if ups} == {}


def test_package_graph_adds_executed_parent_packages():
    graph = package_graph()
    assert {"repro.verify", "repro.verify.registry"} <= \
        graph["repro.synth.cegis"]
    # An importer's own ancestors are already running: no edge.
    assert "repro.synth" not in graph["repro.synth.cegis"]
    assert graph["repro.obs.spans"] >= {"repro.runtime",
                                        "repro.runtime.trace"}


def test_package_graph_has_no_cycle():
    assert find_cycle(package_graph()) == []


def _function_local_imports(tree: ast.Module, package: str) -> List[str]:
    """The ``repro`` module of every import statement inside a function
    body, resolved to its dotted name, one entry per statement."""
    found: List[str] = []

    def visit(node, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            if in_function and isinstance(child, ast.Import):
                found.extend(alias.name for alias in child.names
                             if alias.name.split(".")[0] == "repro")
            elif in_function and isinstance(child, ast.ImportFrom):
                base = _from_base(child, package)
                if base.split(".")[0] == "repro":
                    found.append(base)
            visit(child, nested)

    visit(tree, False)
    return found


def test_no_repro_import_is_function_local():
    """Every ``repro`` import outside ``__main__`` runs at module level:
    ``repro.obs`` loads its modules on first access, so no importer
    defers it."""
    local = []
    for name, path in module_files().items():
        if name == "repro.__main__":
            continue
        local += [(name, target) for target in _function_local_imports(
            ast.parse(path.read_text()), _package_of(name, path))]
    assert sorted(local) == []


def test_function_local_import_finder_resolves_relative_imports():
    tree = ast.parse(
        "import repro.core\n"
        "def f():\n"
        "    from ..obs import spans\n"
        "    import json\n"
        "    def g():\n"
        "        from .engine import x\n"
        "class C:\n"
        "    def m(self):\n"
        "        import repro.runtime\n")
    assert _function_local_imports(tree, "repro.explore") == [
        "repro.obs", "repro.explore.engine", "repro.runtime"]
