"""Every module and top-level name in ``src/repro`` is reachable.

Code that no verb reaches still has to be read, kept green and
documented.  This gate walks the import graph from the CLI entry
points and fails on any module it does not reach, and on any top-level
function or class that nothing in ``src/`` names outside its own
definition.

The walk is static (AST only, nothing is imported).  It follows
imports anywhere in a module, function-local ones included, the
submodule keys of every ``lazy_exports(__name__, {...})`` map, and the
parent packages of every module it reaches.  A name counts as used when
``src/`` holds it as an identifier, an attribute, an imported name or a
whole string constant (so a ``lazy_exports`` re-export is a use).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]
ROOTS = ("repro.cli", "repro.__main__")


def _modules() -> dict[str, Path]:
    """Dotted module name -> source file, for every module under ``repro``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


MODULES = _modules()
TREES = {name: ast.parse(path.read_text(), str(path)) for name, path in MODULES.items()}


def _package(module: str) -> str:
    """The package a module's relative imports resolve against."""
    return module if MODULES[module].name == "__init__.py" else module.rpartition(".")[0]


def _imports(module: str) -> set[str]:
    """Every ``repro`` module that ``module`` imports or lazily re-exports."""
    out: set[str] = set()
    package = _package(module)
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and _is_lazy_exports(node):
            table = node.args[1]
            out.update(
                f"{package}.{key.value}"
                for key in table.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return {name for name in out if name in MODULES}


def _is_lazy_exports(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "lazy_exports" and len(call.args) >= 2 and isinstance(call.args[1], ast.Dict)


def reachable() -> set[str]:
    """The modules the walk from :data:`ROOTS` reaches."""
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parents = [module.rsplit(".", i)[0] for i in range(1, module.count(".") + 1)]
        todo.extend(parents)
        todo.extend(_imports(module) - seen)
    return seen


def _mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names ``tree`` uses, ignoring everything inside ``skip``."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_top_level() -> list[str]:
    """``module.name`` for each top-level def or class nothing else names."""
    per_module = {module: _mentions(tree) for module, tree in TREES.items()}
    unused = []
    for module, tree in TREES.items():
        others = [names for other, names in per_module.items() if other != module]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if any(node.name in names for names in others):
                continue
            if node.name not in _mentions(tree, skip=node):
                unused.append(f"{module}.{node.name}")
    return unused


class TestReachability:
    def test_walk_sees_the_verbs(self):
        seen = reachable()
        for module in ("repro.report", "repro.experiments.chaos_exp", "repro.demand.engine"):
            assert module in seen

    def test_every_module_is_reached_from_the_cli(self):
        assert sorted(set(MODULES) - reachable()) == []

    def test_every_top_level_name_is_used_in_src(self):
        assert unused_top_level() == []
