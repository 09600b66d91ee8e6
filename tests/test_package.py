"""Package-wide invariants: the error hierarchy and the import graph."""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

import blottokit
from blottokit import errors
from blottokit.errors import BlottoError

PACKAGE = Path(blottokit.__file__).parent


def test_every_error_derives_from_the_base_and_keeps_its_builtin_parent():
    classes = [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__ and cls is not BlottoError
    ]
    assert len(classes) == 18
    for cls in classes:
        assert issubclass(cls, BlottoError), cls
        builtin = [base for base in cls.__bases__ if base is not BlottoError]
        assert len(builtin) == 1 and builtin[0].__module__ == "builtins", cls
        assert issubclass(cls, (ValueError, AssertionError, RuntimeError, ZeroDivisionError))


def _relative_imports(tree: ast.AST) -> list[tuple[str, ast.ImportFrom]]:
    """(imported sibling module, node) for every `from .x import ...` in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.append((node.module.split(".")[0], node))
            else:
                found.extend((alias.name, node) for alias in node.names)
    return found


def _import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        graph[path.stem] = {name for name, _ in _relative_imports(tree)}
    return graph


def test_no_relative_import_inside_a_function():
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                misplaced += [
                    f"{path.name}:{node.lineno} in {func.name}"
                    for _, node in _relative_imports(func)
                ]
    assert misplaced == []


def test_package_import_graph_is_acyclic():
    graph = _import_graph()
    assert set().union(*graph.values()) <= set(graph)
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, " -> ".join(path + (module,))
        if module in done:
            return
        for target in sorted(graph[module]):
            visit(target, path + (module,))
        done.add(module)

    for module in sorted(graph):
        visit(module, ())


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
