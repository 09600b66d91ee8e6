"""Package-wide invariants: error hierarchy, import graph, no module-global mutable state,
no unused import or unreferenced private name, one exact-input rule."""

from __future__ import annotations

import ast
import inspect
import sys
from enum import IntEnum
from pathlib import Path

import pytest

import blottokit
from blottokit import errors
from blottokit.blotto import GameSpec, payoff_blotto_exhaustive, sweep_certify, symmetrize
from blottokit.constructions import (
    PartitionMatrix,
    build_prop3_B,
    generic_implement,
    matrix_from_json,
)
from blottokit.distributions import U_ODD, base_vector, gain_table, normalized, point_mass
from blottokit.errors import (
    BadM,
    BadWeights,
    BlottoError,
    DimensionMismatch,
    InfeasibleRange,
    MalformedJSON,
    OutOfTheoremScope,
)
from blottokit.general_lotto import LottoSpec, envelope_best_response
from blottokit.verify import best_response_value, certify

PACKAGE = Path(blottokit.__file__).parent


def test_every_error_derives_from_the_base_and_keeps_its_builtin_parent():
    classes = [
        cls
        for cls in vars(errors).values()
        if inspect.isclass(cls) and cls.__module__ == errors.__name__ and cls is not BlottoError
    ]
    assert len(classes) == 19
    for cls in classes:
        assert issubclass(cls, BlottoError), cls
        builtin = [base for base in cls.__bases__ if base is not BlottoError]
        assert len(builtin) == 1 and builtin[0].__module__ == "builtins", cls
        assert issubclass(
            cls, (ValueError, TypeError, AssertionError, RuntimeError, ZeroDivisionError)
        )


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


def test_certifier_imports_no_builder_and_nothing_of_blotto():
    # The certifier may read a matrix and count its entries, never build one,
    # so a wrong construction cannot vouch for itself.
    graph = _import_graph()
    reached, todo = set(), ["verify"]
    while todo:
        for target in graph[todo.pop()] - reached:
            reached.add(target)
            todo.append(target)
    assert "blotto" not in reached
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    taken = {
        alias.name
        for module, node in _relative_imports(tree)
        if module == "constructions"
        for alias in node.names
    }
    assert taken == {"PartitionMatrix", "cardinality"}


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



_MUTATORS = frozenset({"append", "update", "setdefault", "add", "extend", "insert", "pop", "clear"})


def _stored_names(node: ast.AST) -> set[str]:
    return {
        name.id
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
    }


def _module_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's own top-level statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        else:
            names |= _stored_names(node)
    return names


def _local_names(func: ast.AST) -> set[str]:
    """Parameters and assigned names anywhere inside `func`, nested functions included."""
    names = _stored_names(func)
    for node in ast.walk(func):
        if isinstance(node, ast.arguments):
            params = node.posonlyargs + node.args + node.kwonlyargs + [node.vararg, node.kwarg]
            names.update(param.arg for param in params if param is not None)
    return names


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _functions(tree: ast.Module) -> list[ast.AST]:
    """Module-level functions and the methods of module-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = [node for node in tree.body if isinstance(node, kinds)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, kinds)]
    return found


def _global_state_uses(source: str) -> list[str]:
    """Every cache decorator, `global` statement, function write into a
    module-level name and function call of a `sys.set*` setter."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [
                f"{node.lineno}: functools.{alias.name}"
                for alias in node.names
                if alias.name in ("cache", "lru_cache")
            ]
        elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
            if _root_name(node) == "functools":
                found.append(f"{node.lineno}: functools.{node.attr}")
    module = _module_names(tree)
    for func in _functions(tree):
        shared = module - _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                name, attr = _root_name(node.func.value), node.func.attr
                if attr in _MUTATORS and name in shared:
                    found.append(f"{node.lineno}: {func.name} calls {name}.{attr}")
                elif name == "sys" and attr.startswith("set"):
                    # Interpreter-wide settings such as the recursion limit.
                    found.append(f"{node.lineno}: {func.name} calls sys.{attr}")
                continue
            else:
                continue
            found += [
                f"{node.lineno}: {func.name} writes into {_root_name(target)}"
                for target in targets
                if isinstance(target, (ast.Attribute, ast.Subscript))
                and _root_name(target) in shared
            ]
    return found


def test_no_module_global_mutable_state():
    found = {
        path.name: _global_state_uses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize(
    "source, uses",
    [
        ("_TABLE = {1: 2}\ndef f(k):\n    return _TABLE[k]\n", []),
        ("_T = {}\ndef f(k):\n    _T = {}\n    _T[k] = k\n    _T.update({})\n", []),
        ("def f(memo):\n    memo.append(1)\n", []),
        ("_MEMO = {}\ndef f(k):\n    _MEMO[k] = k\n", ["3: f writes into _MEMO"]),
        ("_MEMO = {}\ndef f(k):\n    _MEMO[k] += 1\n", ["3: f writes into _MEMO"]),
        ("import m\ndef f():\n    m.x.y = 1\n", ["3: f writes into m"]),
        (
            "_SEEN = set()\nclass C:\n    def f(self):\n        _SEEN.add(1)\n",
            ["4: f calls _SEEN.add"],
        ),
        ("_N = 0\ndef f():\n    global _N\n", ["3: global _N"]),
        (
            "import functools\n@functools.lru_cache\ndef f():\n    pass\n",
            ["2: functools.lru_cache"],
        ),
        ("from functools import cache\n", ["1: functools.cache"]),
        (
            "import sys\ndef f(n):\n    sys.setrecursionlimit(n)\n    sys.getrecursionlimit()\n",
            ["3: f calls sys.setrecursionlimit"],
        ),
    ],
)
def test_global_state_scan_flags_each_kind(source, uses):
    assert _global_state_uses(source) == uses


def _object_bypasses(source: str) -> list[str]:
    """'scope: object.attr' for every call of `object.__new__` or
    `object.__setattr__`, scope being the enclosing classes and functions."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr in ("__new__", "__setattr__")
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                found.append(f"{'.'.join(scope) or '<module>'}: object.{func.attr}")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_one_constructor_skips_the_partition_matrix_check():
    # `_trusted` is the only way to a PartitionMatrix that `__post_init__`
    # has not checked; `__post_init__` itself stores the rows it has checked,
    # and LottoSpec stores its budgets as Fractions.
    found = {
        path.name: _object_bypasses(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: calls for name, calls in found.items() if calls} == {
        "constructions.py": [
            "PartitionMatrix.__post_init__: object.__setattr__",
            "PartitionMatrix._trusted: object.__new__",
            "PartitionMatrix._trusted: object.__setattr__",
        ],
        "general_lotto.py": ["LottoSpec.__post_init__: object.__setattr__"],
    }


def test_bypass_scan_names_each_scope():
    source = (
        "x = object.__new__(C)\n"
        "class C:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            object.__setattr__(self, 'a', 1)\n"
        "        setattr(self, 'a', 1)\n"
    )
    assert _object_bypasses(source) == ["<module>: object.__new__", "C.f.g: object.__setattr__"]


# Imports that no code of their module uses, kept because the benchmark
# harness looks them up through `vars(module)[name]`.
_BENCH_LOOKUPS = {
    "constructions": {"mix"},
    "blotto": {"generic_implement", "mix", "lotto_optimal_A", "lotto_optimal_B"},
}


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, the strings of its `__all__` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _dead_names(sources: dict[str, str]) -> list[str]:
    """'module: import name' for every module-level import that its module
    never reads, and 'module: name' for every private module-level name that
    no module of `sources` reads, imports or takes as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loaded = {module: _loaded_names(tree) for module, tree in trees.items()}
    referenced = set().union(*loaded.values())
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        kept = loaded[module] | _BENCH_LOOKUPS.get(module, set())
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                names = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                found += [f"{module}: import {name}" for name in names if name not in kept]
        found += [
            f"{module}: {name}"
            for name in sorted(_module_names(tree))
            if name.startswith("_") and not name.startswith("__") and name not in referenced
        ]
    return found


def test_no_unused_import_or_unreferenced_private_name():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    assert _dead_names(sources) == []


@pytest.mark.parametrize(
    "sources, dead",
    [
        ({"m": "from __future__ import annotations\nimport os\nos.sep\n"}, []),
        ({"m": "import os\n"}, ["m: import os"]),
        ({"m": "import os.path\nos.path.sep\n"}, []),
        ({"m": "from .x import y as z\ny\n"}, ["m: import z"]),
        ({"m": "from .x import y\n__all__ = ['y']\n"}, []),
        ({"constructions": "from .distributions import mix\n"}, []),
        ({"verify": "from .distributions import mix\n"}, ["verify: import mix"]),
        ({"m": "_X = 1\n"}, ["m: _X"]),
        ({"m": "_X = 1\ndef f():\n    return _X\n"}, []),
        ({"m": "def _f():\n    pass\nclass _C:\n    pass\n"}, ["m: _C", "m: _f"]),
        ({"m": "def _f():\n    pass\n", "n": "from .m import _f\n"}, ["n: import _f"]),
        ({"m": "def _f():\n    pass\n", "n": "from . import m\nm._f()\n"}, []),
        ({"m": "X = 1\n__all__ = []\n"}, []),
    ],
)
def test_dead_name_scan_flags_each_kind(sources, dead):
    assert _dead_names(sources) == dead


def _exact_rule_spellings(source: str) -> list[str]:
    """'line: spelling' for every `isinstance(..., bool)` (a tuple of types
    included), comparison of `type(...)` with `int` (or a tuple holding it), and
    `set(map(type, ...))`: the exact-input rule written out in place of a call
    into `exactmath`."""

    def called(node: ast.AST, name: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        )

    def named(node: ast.AST, name: str) -> bool:
        return isinstance(node, ast.Name) and node.id == name

    found = []
    for node in ast.walk(ast.parse(source)):
        if called(node, "isinstance") and len(node.args) == 2:
            kinds = node.args[1]
            if any(named(kind, "bool") for kind in getattr(kinds, "elts", [kinds])):
                found.append(f"{node.lineno}: isinstance(..., bool)")
        elif isinstance(node, ast.Compare) and called(node.left, "type"):
            kinds = [kind for other in node.comparators for kind in getattr(other, "elts", [other])]
            if any(named(kind, "int") for kind in kinds):
                found.append(f"{node.lineno}: type(...) is int")
        elif called(node, "set") and node.args and called(node.args[0], "map"):
            if node.args[0].args and named(node.args[0].args[0], "type"):
                found.append(f"{node.lineno}: set(map(type, ...))")
    return found


def test_only_exactmath_spells_the_exact_input_rule():
    found = {
        path.name: _exact_rule_spellings(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found.pop("exactmath.py") != []
    assert {name: uses for name, uses in found.items() if uses} == {}


@pytest.mark.parametrize(
    "source, uses",
    [
        ("isinstance(x, bool)\n", ["1: isinstance(..., bool)"]),
        ("isinstance(x, (int, bool))\n", ["1: isinstance(..., bool)"]),
        ("if type(x) is int:\n    pass\n", ["1: type(...) is int"]),
        ("type(x) is not int\n", ["1: type(...) is int"]),
        ("type(x) == int\n", ["1: type(...) is int"]),
        ("type(x) in (int, Fraction)\n", ["1: type(...) is int"]),
        ("set(map(type, xs)) <= {int}\n", ["1: set(map(type, ...))"]),
        ("x = 1\ny = set(map(type, x.values()))\n", ["2: set(map(type, ...))"]),
        ("isinstance(x, int)\ntype(x) is str\nset(map(len, xs))\nset(xs)\n", []),
        ("is_int(x)\nall_int(xs)\nall_rat(map(f, xs))\n", []),
    ],
)
def test_exact_rule_scan_flags_each_spelling(source, uses):
    assert _exact_rule_spellings(source) == uses


class _Count(IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


_ONE_ROW = PartitionMatrix(3, 2, ((1, 2),))

# (entry point, arguments, error): an `IntEnum` member in one scalar and one
# collection argument per module that has both kinds.
_INT_ENUM_INPUTS = [
    (GameSpec, (_Count.THREE, 1, 2), OutOfTheoremScope),
    (sweep_certify, (_Count.TWO, 6), InfeasibleRange),
    (symmetrize, ((_Count.ONE, 2), 2), DimensionMismatch),
    (payoff_blotto_exhaustive, ([((1, 2), _Count.ONE)], (2, 1)), BadWeights),
    (PartitionMatrix, (_Count.THREE, 2, ((1, 2),)), DimensionMismatch),
    (PartitionMatrix, (3, 2, ((_Count.ONE, 2),)), DimensionMismatch),
    (build_prop3_B, (_Count.TWO, 2, 4), DimensionMismatch),
    (generic_implement, (point_mass(1), 2, _Count.TWO), DimensionMismatch),
    (
        matrix_from_json,
        ({"budget": _Count.THREE, "battlefields": 2, "rows": [[1, 2]]},),
        MalformedJSON,
    ),
    (base_vector, (U_ODD, _Count.TWO), BadM),
    (point_mass, (_Count.TWO,), BadWeights),
    (normalized, ({0: _Count.ONE},), BadWeights),
    (gain_table, ({0: 1}, _Count.TWO), BadWeights),
    (LottoSpec, (_Count.THREE, 1), OutOfTheoremScope),
    (envelope_best_response, (point_mass(1), _Count.TWO), OutOfTheoremScope),
    (best_response_value, (_ONE_ROW, _Count.TWO, 2), InfeasibleRange),
    (certify, (_ONE_ROW, PartitionMatrix(1, 2, ((1, 0),)), 3, 1, _Count.TWO), DimensionMismatch),
]


def test_an_int_subclass_is_not_an_exact_input_at_any_entry_point():
    missed = []
    for entry, args, error in _INT_ENUM_INPUTS:
        try:
            entry(*args)
        except error:
            continue
        missed.append(f"{entry.__name__}{args!r}")
    assert missed == []
