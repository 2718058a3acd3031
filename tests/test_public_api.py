"""Public-API surface checks: everything advertised in ``__all__`` exists,
and the README's import paths work."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

PACKAGES = [
    "repro",
    "repro.runtime",
    "repro.mechanisms",
    "repro.mechanisms.pathexpr",
    "repro.resources",
    "repro.problems",
    "repro.problems.registry",
    "repro.core",
    "repro.analysis",
    "repro.verify",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    importlib.import_module(name)


def _modules_with_all():
    """Every repro module whose source assigns ``__all__`` at top level."""
    names = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        if any(isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "__all__"
                       for t in node.targets)
               for node in tree.body):
            parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
            if parts[-1] == "__init__":
                parts.pop()
            names.append(".".join(parts))
    return names


MODULES_WITH_ALL = _modules_with_all()


def test_every_package_with_all_is_checked():
    assert {
        "repro", "repro.runtime", "repro.verify", "repro.explore",
        "repro.recover", "repro.resilience", "repro.dist", "repro.obs",
        "repro.synth", "repro.load",
    } <= set(MODULES_WITH_ALL)


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    for symbol in module.__all__:
        assert hasattr(module, symbol), "{}.{} missing".format(name, symbol)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_readme_quickstart_import_path():
    from repro.problems.registry import build_evaluator

    report = build_evaluator().evaluate(run_verifiers=False)
    assert report.render()


def test_mechanism_classes_importable_from_one_place():
    from repro.mechanisms import (  # noqa: F401
        Channel,
        Condition,
        Crowd,
        EventCount,
        GuardedPathResource,
        Monitor,
        PathResource,
        ReceiveOp,
        SendOp,
        Sequencer,
        Serializer,
        SharedRegion,
        select,
    )


def test_every_solution_class_declares_identity():
    from repro.problems.registry import PACKAGES, REGISTRY

    cells = [entry for package in PACKAGES for entry in package.CATALOG]
    for entry in cells:
        identity = (entry.factory.problem, entry.factory.mechanism)
        assert identity == (entry.description.problem,
                            entry.description.mechanism)
        assert REGISTRY[identity] is entry
    # No (problem, mechanism) key is declared twice.
    assert len(cells) == len(REGISTRY)
