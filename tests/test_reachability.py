"""Every module, top-level name and class member in ``src/repro`` is used.

Code that no user reaches still has to be read, kept green and
documented.  The users are ``src/`` itself, ``examples/`` (run by
``tests/test_examples.py``), ``scripts/``, ``benchmarks/`` (the paper
bands) and ``bench/`` (the benchmark harness).  Tests are not users: a
member that only its own test calls is behaviour no study, example or
benchmark depends on, and the test alone keeps it alive.

This gate walks the import graph from the CLI entry points and fails on
any module it does not reach, on any top-level function or class, and
on any method, property or dataclass/NamedTuple field of a class, that
no user names outside its own definition.

The walk is static (AST only, nothing is imported).  It follows
imports anywhere in a module, function-local ones included, and the
parent packages of every module it reaches.  A name counts as used when
a user holds it as an identifier, an attribute, an imported name or a
whole string constant.  Two things do not count: a keyword argument (a
field set by keyword and never read is write-only), and an entry of a
``lazy_exports(__name__, {...})`` table (a re-export is not a use).  The
walk follows a table key only when a user other than the submodule
itself names one of its names.

Dunder members are exempt: the interpreter calls them.  Any other member
that no user names needs an entry in :data:`ALLOWED` with its reason,
and an entry that no longer exists, or has gained a user, fails too.
"""

from __future__ import annotations

import ast
import copy
import functools
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]
REPO = Path(__file__).parents[1]
ROOTS = ("repro.cli", "repro.__main__")
USER_DIRS = ("examples", "scripts", "benchmarks", "bench")

#: ``module.Class.member`` -> why it stays although no user names it.
ALLOWED = {
    "repro.core.measure_plan.LegSample.retx_loss": (
        "unpacked by position: measure_four_ways_batch transposes LegSamples "
        "into FlowStats.from_samples' losses, the retransmission rate of Fig. 4"
    ),
    "repro.demand.engine.DemandEngine.epoch_metrics": (
        "named only by a bench/layers.py tracer string; goes once the "
        "benchmark traces DemandEngine.run instead"
    ),
    "repro.experiments.diversity_exp.OverlayPathDiversity.node_name": (
        "serialized: `repro run fig8 --out` writes every record field"
    ),
    "repro.experiments.multihop_exp.MultiHopRecord.two_hop_uses_backbone": (
        "serialized: `repro run multihop --out` writes every record field"
    ),
}


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
USERS = {
    str(path.relative_to(REPO)): ast.parse(path.read_text(), str(path))
    for folder in USER_DIRS
    for path in sorted((REPO / folder).rglob("*.py"))
}


def _lazy_tables(tree: ast.AST) -> list[ast.Dict]:
    """The ``{submodule: names}`` tables of every ``lazy_exports`` call."""
    tables = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "lazy_exports" and isinstance(node.args[1], ast.Dict):
            tables.append(node.args[1])
    return tables


@functools.cache
def _mentions(tree: ast.AST) -> Counter[str]:
    """How often ``tree`` uses each name, outside its ``lazy_exports`` tables."""
    skipped = {id(node) for table in _lazy_tables(tree) for node in ast.walk(table)}
    names: Counter[str] = Counter()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


def _named_elsewhere(trees: dict, users: dict):
    """``(name, module) -> bool``: does a file other than ``module`` name ``name``?"""
    per_file = {key: _mentions(tree) for key, tree in [*trees.items(), *users.items()]}
    files_naming = Counter(name for names in per_file.values() for name in names)
    return lambda name, module: files_naming[name] > (name in per_file.get(module, ()))


def _package(module: str, trees: dict) -> str:
    """The package a module's relative imports resolve against."""
    is_package = any(name.startswith(f"{module}.") for name in trees)
    return module if is_package else module.rpartition(".")[0]


def _imports(module: str, trees: dict, named_elsewhere) -> set[str]:
    """Every ``repro`` module ``module`` imports, or re-exports a used name of."""
    out: set[str] = set()
    package = _package(module, trees)
    for node in ast.walk(trees[module]):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    for table in _lazy_tables(trees[module]):
        for key, names in zip(table.keys, table.values):
            target = f"{package}.{key.value}"
            if any(named_elsewhere(name.value, target) for name in names.elts):
                out.add(target)
    return {name for name in out if name in trees}


def reachable(trees: dict = TREES, users: dict = USERS) -> set[str]:
    """The modules the walk from :data:`ROOTS` reaches."""
    named_elsewhere = _named_elsewhere(trees, users)
    seen: set[str] = set()
    todo = list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parents = [module.rsplit(".", i)[0] for i in range(1, module.count(".") + 1)]
        todo.extend(parents)
        todo.extend(_imports(module, trees, named_elsewhere) - seen)
    return seen


def _unused(trees: dict, users: dict, definitions) -> list[str]:
    """``module.qualname`` of each definition no user names outside itself.

    ``definitions(tree)`` yields ``(qualname, name, nodes)``: the nodes
    are the definition, whose own uses of ``name`` do not count.
    """
    named_elsewhere = _named_elsewhere(trees, users)
    unused = []
    for module, tree in trees.items():
        for qualname, name, nodes in definitions(tree):
            if named_elsewhere(name, module):
                continue
            if _mentions(tree)[name] == sum(_mentions(node)[name] for node in nodes):
                unused.append(f"{module}.{qualname}")
    return unused


def _top_level(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, [node]


def _members(tree: ast.Module):
    """Methods, properties and annotated fields of every class, by name.

    A property's getter and setter share a name, so they are one member.
    """
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        by_name: dict[str, list[ast.AST]] = {}
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                by_name.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                by_name.setdefault(node.target.id, []).append(node)
        for name, nodes in by_name.items():
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{cls.name}.{name}", name, nodes


def unused_top_level(trees: dict = TREES, users: dict = USERS) -> list[str]:
    """``module.name`` for each top-level def or class no user names."""
    return _unused(trees, users, _top_level)


def unused_members(trees: dict = TREES, users: dict = USERS) -> list[str]:
    """``module.Class.member`` for each non-dunder member no user names."""
    return _unused(trees, users, _members)


def _edited(module: str, edit) -> dict[str, ast.Module]:
    """:data:`TREES` with a deep copy of ``module``'s tree passed through ``edit``."""
    tree = copy.deepcopy(TREES[module])
    edit(tree)
    return {**TREES, module: tree}


class TestReachability:
    def test_walk_sees_the_verbs(self):
        seen = reachable()
        for module in ("repro.report", "repro.experiments.chaos_exp", "repro.demand.engine"):
            assert module in seen

    def test_every_module_is_reached_from_the_cli(self):
        assert sorted(set(MODULES) - reachable()) == []

    def test_every_top_level_name_is_used_in_src(self):
        assert unused_top_level() == []

    def test_every_class_member_is_used(self):
        assert sorted(set(unused_members()) - set(ALLOWED)) == []

    def test_allow_list_names_only_members_that_exist(self):
        members = {
            f"{module}.{qualname}"
            for module, tree in TREES.items()
            for qualname, _, _ in _members(tree)
        }
        assert sorted(set(ALLOWED) - members) == []

    def test_allow_list_names_only_members_without_a_user(self):
        assert sorted(set(ALLOWED) - set(unused_members())) == []


class TestGateCatches:
    """The gate fails on what it exists to find, shown on synthetic copies."""

    def test_method_never_called(self):
        def add_method(tree):
            link = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Link")
            link.body += ast.parse("def spare_capacity(self):\n    return 0.0\n").body

        trees = _edited("repro.net.links", add_method)
        assert "repro.net.links.Link.spare_capacity" in unused_members(trees)
        assert "repro.net.links.Link.spare_capacity" not in unused_members()

    def test_lazy_export_no_user_imports(self):
        def add_entry(tree):
            (table,) = _lazy_tables(tree)
            table.keys.append(ast.Constant("orphan"))
            table.values.append(ast.Tuple([ast.Constant("orphan_tool")], ast.Load()))

        trees = _edited("repro.measure", add_entry)
        trees["repro.measure.orphan"] = ast.parse("def orphan_tool():\n    return 0\n")
        assert "repro.measure.orphan" not in reachable(trees)
        assert "repro.measure.orphan.orphan_tool" in unused_top_level(trees)

        # The same entry with a user importing its name is reached and used.
        users = {**USERS, "examples/orphan.py": ast.parse("from repro.measure import orphan_tool")}
        assert "repro.measure.orphan" in reachable(trees, users)
        assert "repro.measure.orphan.orphan_tool" not in unused_top_level(trees, users)
