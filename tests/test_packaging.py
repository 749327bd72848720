"""Runtime imports of the package match its declared dependencies."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relmodes"


def absolute_imports(path):
    """Top-level names of every absolute import in a module, at any depth
    (function-local imports included)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
            .replace("-", "_") for req in project["dependencies"]}


def test_runtime_imports_are_declared():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    imported = set().union(*(absolute_imports(m) for m in modules))
    third_party = imported - set(sys.stdlib_module_names) - {"relmodes"}
    assert third_party <= declared_dependencies(), (
        f"undeclared runtime imports: "
        f"{sorted(third_party - declared_dependencies())}")
