"""Every module, top-level name and class member in ``src/repro`` is used.

Code that no user reaches still has to be read, kept green and
documented.  The users are ``src/`` itself, ``examples/`` (run by
``tests/test_examples.py``), ``scripts/``, ``benchmarks/`` (the paper
bands) and ``bench/`` (the benchmark harness).  Tests are not users: a
member that only its own test calls is behaviour no study, example or
benchmark depends on, and the test alone keeps it alive.

This gate walks the import graph from the CLI entry points and fails on
any module it does not reach, on any top-level function, class or module
constant that no user names outside its own definition, and on any class
member that no user reads.

The walk is static (AST only, nothing is imported).  It follows
imports anywhere in a module, function-local ones included, and the
parent packages of every module it reaches.  A top-level name counts as
used when a user holds it as an identifier, an attribute, an imported
name or a whole string constant.  Two things do not count: a keyword
argument (a field set by keyword and never read is write-only), and an
entry of a ``lazy_exports(__name__, {...})`` table (a re-export is not a
use).  The walk follows a table key only when a user other than the
submodule itself names one of its names.

A member is a method, property or annotated field in a class body, or
an attribute a method stores on ``self``.  It is used when a user reads
it, as ``receiver.member`` outside its own definition, through a
receiver that may hold its class.  :class:`Owners` resolves a receiver
wherever the code states its type: ``self`` and ``cls``; annotated
parameters, fields and properties; ``self.x`` stored from a typed value;
a name bound to a constructor call; a call of a function or method
whose return annotation names a ``repro`` class.  A read through a
class reaches the member it inherits and every override below it.  An
unresolved receiver, a protocol, and a whole string constant (a
``getattr`` name, a tracer string, a ``**row`` key) count as reads of
every member of that name, so the gate is never weaker than matching
by name.  A store, ``self.x += 1`` included, is not a read.

Dunder members are exempt: the interpreter calls them.  Any other member
that no user reads needs an entry in :data:`ALLOWED` with its reason,
and an entry that no longer exists, or has gained a user, fails too.
"""

from __future__ import annotations

import ast
import builtins
import copy
import functools
from collections import Counter
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]
REPO = Path(__file__).parents[1]
ROOTS = ("repro.cli", "repro.__main__")
USER_DIRS = ("examples", "scripts", "benchmarks", "bench")

_TRACE_COUNTER = (
    "a per-layer event count for the planned `repro --trace` (ROADMAP item 2); "
    "today only tests read it"
)
_SOLVE_EPOCH = (
    "a field of solve_epoch's result: only a bench/layers.py tracer string names "
    "solve_epoch, so it goes with solve_epoch once the benchmark stops tracing it"
)

#: ``module.Class.member`` -> why it stays although no user reads it.
ALLOWED = {
    "repro.control.probes.ProbeScheduler.cadence_relaxations": _TRACE_COUNTER,
    "repro.control.probes.ProbeScheduler.cadence_tightenings": _TRACE_COUNTER,
    "repro.faults.injector.FaultInjector.route_recomputations": _TRACE_COUNTER,
    "repro.core.measure_plan.LegSample.retx_loss": (
        "unpacked by position: measure_four_ways_batch transposes LegSamples "
        "into FlowStats.from_samples' losses, the retransmission rate of Fig. 4"
    ),
    "repro.demand.aggregate.EpochAllocation.classes": _SOLVE_EPOCH,
    "repro.demand.aggregate.EpochAllocation.offered_mbps": _SOLVE_EPOCH,
    "repro.demand.aggregate.EpochAllocation.per_flow_mbps": _SOLVE_EPOCH,
    "repro.demand.engine.DemandEngine.epoch_metrics": (
        "named only by a bench/layers.py tracer string; goes once the "
        "benchmark traces DemandEngine.run instead"
    ),
    "repro.analysis.improvement.ImprovementSummary.mean_ratio": (
        "serialized: `repro run fig2 --out` writes every summary field"
    ),
    **{
        f"repro.experiments.chaos_exp.ChaosOutcome.{name}": (
            "serialized: `repro chaos --out` writes every outcome field"
        )
        for name in ("probes_lost", "probes_retried", "probes_sent",
                     "probes_stale_served", "probes_timed_out")
    },
    "repro.experiments.control_exp.StrategyOutcome.probes_sent": (
        "serialized: `repro control --out` writes every outcome field"
    ),
    "repro.experiments.diversity_exp.OverlayPathDiversity.node_name": (
        "serialized: `repro run fig8 --out` writes every record field"
    ),
    "repro.experiments.multihop_exp.MultiHopRecord.two_hop_uses_backbone": (
        "serialized: `repro run multihop --out` writes every record field"
    ),
    "repro.experiments.weblab.PairRecord.client": (
        "serialized: `repro run fig2 --out` writes every record field"
    ),
    "repro.geo.cities.City.country": (
        "paper data: the Eclipse mirrors' countries (Sec. II-A), which the "
        "server placement is checked against"
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
    """Top-level functions, classes and module constants, by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, target.id, [node]


_WRAPPERS = {"Optional", "Union", "ClassVar", "Final", "type", "Type"}
_OPAQUE = {"Any", "object", "Self"}
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)
_LITERALS = (
    ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set, ast.Compare,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)
#: The type of a value no ``repro`` member can be read from: a number, a
#: ``set``, a module, a function, an instance of a class outside ``repro``.
FOREIGN = frozenset({""})
_CYCLE = object()


def _memo(method):
    """Cache ``method`` per argument; a cycle through it resolves to ``None``."""

    @functools.wraps(method)
    def cached(self, *key):
        memo = self.memo.setdefault(method.__name__, {})
        hit = memo.get(key)
        if hit is _CYCLE:
            return None
        if key not in memo:
            memo[key] = _CYCLE
            memo[key] = method(self, *key)
        return memo[key]

    return cached


def _union(types):
    types = list(types)
    return None if None in types else frozenset().union(*types)


def _decorated(node: ast.AST, *names: str) -> bool:
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) in names
        for d in getattr(node, "decorator_list", ())
    )


def _base_name(node: ast.expr) -> str | None:
    node = node.value if isinstance(node, ast.Subscript) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _targets(node: ast.expr):
    """The ``Name`` and ``Attribute`` nodes an assignment target binds."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        yield node


def _class_body(cls: ast.ClassDef) -> dict[str, list[ast.AST]]:
    """Methods, properties and annotated fields of ``cls``, by name.

    A property's getter and setter share a name, so they are one member.
    """
    by_name: dict[str, list[ast.AST]] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            by_name.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            by_name.setdefault(node.target.id, []).append(node)
    return by_name


class Owners:
    """Which class each attribute read names, where the code states its type.

    A receiver's type comes from ``self``/``cls``, a parameter or field
    annotation, a ``self.x = ...`` store, a constructor call, or the
    return annotation of the function or method called.  ``None`` is an
    unresolved type: a read through it counts for every member of that
    name, as does a whole string constant.
    """

    def __init__(self, trees: dict, users: dict):
        self.trees = trees
        self.files = {**trees, **users}
        self.memo: dict = {}
        self.classes: dict[str, ast.ClassDef] = {}
        self.module_of: dict[str, str] = {}
        self.defs: dict[str, dict] = {}
        self.imports: dict[str, dict] = {}
        self.chains: dict[int, tuple] = {}
        self.home: dict[int, str] = {}
        #: ``class key -> member name -> [definition nodes]``.
        self.members: dict[str, dict[str, list]] = {}
        #: ``class key -> attribute -> [(value or ("ann", annotation), chain)]``.
        self.stores: dict[str, dict[str, list]] = {}
        self.reads: list[tuple[str, ast.Attribute, tuple]] = []
        self.strings: list[tuple[str, ast.Constant]] = []
        for file, tree in self.files.items():
            self._index(file, tree)
        for file, tree in self.files.items():
            self._visit(file, tree, (tree,), None)
        self.bases = {key: self._bases(key) for key in self.classes}
        self.children: dict[str, list[str]] = {}
        for key, bases in self.bases.items():
            for base in bases:
                self.children.setdefault(base, []).append(key)
        # A subclass storing an attribute its base defines stores the base's.
        for key in self.classes:
            for name in set(self.stores[key]) - set(_class_body(self.classes[key])):
                owner = next((c for c in self.mro(key)[1:] if name in self.members[c]), None)
                if owner:
                    self.members[owner][name] += self.members[key].pop(name)
                    self.stores[owner].setdefault(name, []).extend(self.stores[key].pop(name))

    # -- symbols ---------------------------------------------------------

    def _index(self, file: str, tree: ast.Module) -> None:
        defs, imports = {}, {}
        module = file if file in self.trees else None
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and module:
                defs[node.name] = ("class", f"{module}.{node.name}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = ("func", file, node)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and module:
                key = f"{module}.{node.name}"
                self.classes[key], self.module_of[key] = node, module
                self.members[key], self.stores[key] = _class_body(node), {}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imports[alias.asname] = ("module", alias.name)
                    else:
                        top = alias.name.partition(".")[0]
                        imports[top] = ("module", top)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level and module:
                    anchor = _package(module, self.trees).rsplit(".", node.level - 1)[0]
                    base = f"{anchor}.{base}" if base else anchor
                for alias in node.names:
                    imports[alias.asname or alias.name] = ("from", base, alias.name)
        self.defs[file], self.imports[file] = defs, imports

    @_memo
    def export(self, module: str, name: str):
        """What ``from module import name`` binds, following re-exports."""
        if f"{module}.{name}" in self.trees:
            return ("module", f"{module}.{name}")
        if module != "repro" and not module.startswith("repro."):
            # A capitalised name from outside ``repro`` is taken for a class.
            return ("foreign", name[:1].isupper())
        if module not in self.trees:
            return None
        found = self.defs[module].get(name)
        if found is None and name in self.imports[module]:
            found = self.symbol(module, name)
        for table in _lazy_tables(self.trees[module]) if found is None else ():
            for key, names in zip(table.keys, table.values):
                if name in [elt.value for elt in names.elts]:
                    found = self.export(f"{_package(module, self.trees)}.{key.value}", name)
        return found

    def symbol(self, file: str, name: str):
        """What a module-level ``name`` in ``file`` is bound to."""
        found = self.defs[file].get(name) or self.imports[file].get(name)
        if found is None:
            value = getattr(builtins, name, None)
            return None if value is None else ("foreign", isinstance(value, type))
        if found[0] == "from":
            return self.export(found[1], found[2])
        return found

    def _symbol_of(self, expr: ast.expr, file: str, chain: tuple):
        if isinstance(expr, ast.Name):
            if any(expr.id in self._bindings(scope) for scope in chain):
                return None
            return self.symbol(file, expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._symbol_of(expr.value, file, chain)
            if owner and owner[0] == "module":
                return self.export(owner[1], expr.attr)
        return None

    def _class_type(self, symbol) -> frozenset | None:
        if symbol is None:
            return None
        if symbol[0] == "class":
            return frozenset({symbol[1]})
        return FOREIGN if symbol[0] in ("foreign", "module", "func") else None

    @_memo
    def annotation(self, file: str, node: ast.expr | None) -> frozenset | None:
        """The ``repro`` classes an annotation names; ``None`` if unknown."""
        if isinstance(node, ast.Constant):
            if node.value is None:
                return frozenset()
            if isinstance(node.value, str):
                return self.annotation(file, ast.parse(node.value, mode="eval").body)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union([self.annotation(file, node.left), self.annotation(file, node.right)])
        if isinstance(node, ast.Subscript):
            if _base_name(node) not in _WRAPPERS:
                return self.annotation(file, node.value)
            inner = node.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            return _union(self.annotation(file, arg) for arg in args)
        if isinstance(node, (ast.Name, ast.Attribute)) and _base_name(node) not in _OPAQUE:
            return self._class_type(self._symbol_of(node, file, ()))
        return None

    # -- scopes ----------------------------------------------------------

    def _visit(self, file: str, node: ast.AST, chain: tuple, method) -> None:
        """Record scope chains, ``self.`` stores, attribute reads and strings."""
        if isinstance(node, ast.ClassDef):
            key = f"{file}.{node.name}" if file in self.trees else None
            for child in [*node.decorator_list, *node.bases, *node.keywords]:
                self._visit(file, child, chain, method)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and key:
                    self.home[id(item)] = key
                self._visit(file, item, chain, None)
            return
        if isinstance(node, _SCOPES):
            args = getattr(node, "args", None)
            for child in getattr(node, "decorator_list", ()):
                self._visit(file, child, chain, method)
            chain = (*chain, node)
            self.chains[id(node)] = chain
            key = self.home.get(id(node))
            positional = args.posonlyargs + args.args if args else []
            if key and positional and not _decorated(node, "staticmethod"):
                method = (key, positional[0].arg)
            for child in ast.iter_child_nodes(node):
                if child not in getattr(node, "decorator_list", ()):
                    self._visit(file, child, chain, method)
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and method:
            key, self_name = method
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for bound in _targets(target):
                    receiver = getattr(bound, "value", None)
                    if isinstance(receiver, ast.Name) and receiver.id == self_name:
                        if isinstance(node, ast.AnnAssign):
                            value = ("ann", node.annotation)
                        elif isinstance(node, ast.Assign) and bound is target:
                            value = node.value
                        else:
                            value = None
                        self.members[key].setdefault(bound.attr, []).append(node)
                        self.stores[key].setdefault(bound.attr, []).append((value, chain))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            self.reads.append((file, node, chain))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self.strings.append((file, node))
        for child in ast.iter_child_nodes(node):
            self._visit(file, child, chain, method)

    @_memo
    def _bindings(self, scope: ast.AST) -> dict[str, list]:
        """``name -> [binding]`` for the names ``scope`` itself binds."""
        out: dict[str, list] = {}
        declared_outer: set[str] = set()
        key = self.home.get(id(scope))
        args = getattr(scope, "args", None)
        if args is not None:
            positional = args.posonlyargs + args.args
            for i, arg in enumerate([*positional, *args.kwonlyargs]):
                first = i == 0 and key and not _decorated(scope, "staticmethod")
                out[arg.arg] = [("self", key) if first else ("ann", arg.annotation)]
            for arg in (args.vararg, args.kwarg):
                if arg:
                    out[arg.arg] = [None]
        for gen in getattr(scope, "generators", ()):
            for bound in _targets(gen.target):
                out.setdefault(getattr(bound, "id", ""), []).append(None)
        statements = isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef))
        todo = list(scope.body) if statements else []
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared_outer.update(node.names)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for bound in _targets(target):
                        if isinstance(bound, ast.Name):
                            value = node.value if bound is target else None
                            out.setdefault(bound.id, []).append(value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                out.setdefault(node.target.id, []).append(("ann", node.annotation))
            elif isinstance(node, ast.NamedExpr):
                out.setdefault(node.target.id, []).append(node.value)
            elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor, ast.withitem)):
                target = node.optional_vars if isinstance(node, ast.withitem) else node.target
                for bound in _targets(target) if target else ():
                    if isinstance(bound, ast.Name):
                        out.setdefault(bound.id, []).append(None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                out.setdefault(node.name, []).append(None)
            elif isinstance(node, (ast.MatchAs, ast.MatchStar)) and node.name:
                out.setdefault(node.name, []).append(None)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(scope, ast.Module):
                    out.setdefault(node.name, []).append(None)
                todo.extend(node.decorator_list)
                continue
            if not isinstance(node, _SCOPES):
                todo.extend(ast.iter_child_nodes(node))
        for name in declared_outer:
            out.pop(name, None)
        return out

    def _binding_type(self, binding, file: str, chain: tuple) -> frozenset | None:
        if binding is None:
            return None
        if isinstance(binding, tuple):
            kind, value = binding
            return frozenset({value}) if kind == "self" else self.annotation(file, value)
        return self.type_of(binding, file, chain)

    @_memo
    def _name_type(self, file: str, name: str, scope: ast.AST) -> frozenset | None:
        chain = self.chains.get(id(scope), (scope,))
        return _union(self._binding_type(b, file, chain) for b in self._bindings(scope)[name])

    def type_of(self, expr: ast.expr, file: str, chain: tuple) -> frozenset | None:
        """The ``repro`` classes ``expr`` may hold an instance (or class) of."""
        if isinstance(expr, ast.Name):
            for scope in reversed(chain):
                if expr.id in self._bindings(scope):
                    return self._name_type(file, expr.id, scope)
            return self._class_type(self.symbol(file, expr.id))
        if isinstance(expr, ast.Attribute):
            owners = self.type_of(expr.value, file, chain)
            if not owners or "" in owners:
                return None
            return _union(self.attribute_type(owner, expr.attr) for owner in owners)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "super" and not expr.args:
                key = next((self.home[id(s)] for s in reversed(chain) if id(s) in self.home), None)
                return frozenset(self.bases.get(key, ())) or FOREIGN
            symbol = self._symbol_of(func, file, chain)
            if symbol and symbol[0] == "class":
                return frozenset({symbol[1]})
            if symbol and symbol[0] == "func":
                return self.annotation(symbol[1], symbol[2].returns)
            if symbol and symbol[0] == "foreign" and symbol[1]:
                return FOREIGN
            if isinstance(func, ast.Attribute) and symbol is None:
                owners = self.type_of(func.value, file, chain)
                if owners and "" not in owners:
                    return _union(self.returns(owner, func.attr) for owner in owners)
            return None
        if isinstance(expr, ast.Constant) and expr.value is None:
            return frozenset()
        if isinstance(expr, (ast.IfExp, ast.BoolOp)):
            values = expr.values if isinstance(expr, ast.BoolOp) else [expr.body, expr.orelse]
            return _union(self.type_of(value, file, chain) for value in values)
        if isinstance(expr, ast.NamedExpr):
            return self.type_of(expr.value, file, chain)
        return FOREIGN if isinstance(expr, _LITERALS) else None

    # -- classes ---------------------------------------------------------

    def _bases(self, key: str) -> list[str]:
        module = self.module_of[key]
        out = []
        for base in self.classes[key].bases:
            found = self._class_type(self._symbol_of(base, module, ()))
            out.extend(sorted(found - FOREIGN) if found else ())
        return out

    def mro(self, key: str) -> list[str]:
        out = [key]
        for base in self.bases.get(key, ()):
            out.extend(c for c in self.mro(base) if c not in out)
        return out

    def descendants(self, key: str) -> list[str]:
        out = []
        for child in self.children.get(key, ()):
            out += [child, *self.descendants(child)]
        return out

    def protocol(self, key: str) -> bool:
        return any(_base_name(base) == "Protocol" for base in self.classes[key].bases)

    def _definer(self, key: str, name: str) -> str | None:
        return next((c for c in self.mro(key) if name in self.members.get(c, ())), None)

    @_memo
    def attribute_type(self, key: str, name: str) -> frozenset | None:
        """The declared type of ``key``'s attribute or property ``name``."""
        owner = self._definer(key, name)
        if owner is None:
            return None
        module = self.module_of[owner]
        for node in self.members[owner][name]:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                return self.annotation(module, node.annotation)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _decorated(node, "property", "cached_property"):
                    return self.annotation(module, node.returns)
                return None
        return _union(
            self._binding_type(value, module, chain)
            for value, chain in self.stores[owner][name]
        )

    @_memo
    def returns(self, key: str, name: str) -> frozenset | None:
        """The return annotation of method ``name`` as called on ``key``."""
        owner = self._definer(key, name)
        nodes = self.members[owner][name] if owner else []
        if nodes and isinstance(nodes[0], (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _decorated(nodes[0], "property", "cached_property"):
                return self.annotation(self.module_of[owner], nodes[0].returns)
        return None

    def targets(self, owners: frozenset, name: str) -> set[str] | None:
        """Member keys a read of ``name`` on ``owners`` may reach; ``None``: any.

        A read reaches the member its class inherits and every override
        below it.  A protocol, a class outside ``src/``, or a class that
        defines no such member leaves the read unresolved.
        """
        ours = owners - FOREIGN
        out = set()
        for owner in ours:
            if owner not in self.classes or self.protocol(owner):
                return None
            definer = self._definer(owner, name)
            out.update([definer] if definer else [])
            out.update(c for c in self.descendants(owner) if name in self.members[c])
        if ours and not out:
            return None
        return {f"{key}.{name}" for key in out}

    # -- uses ------------------------------------------------------------

    @functools.cached_property
    def uses(self) -> dict[str, list[tuple[str, ast.AST, set | None]]]:
        """``name -> [(file, node, member keys or None)]`` for every read."""
        out: dict[str, list] = {}
        for file, node, chain in self.reads:
            owners = self.type_of(node.value, file, chain)
            found = None if owners is None else self.targets(owners, node.attr)
            out.setdefault(node.attr, []).append((file, node, found))
        for file, node in self.strings:
            out.setdefault(node.value, []).append((file, node, None))
        return out

    def used(self, key: str, name: str) -> bool:
        member = f"{key}.{name}"
        module = self.module_of[key]
        inside = None
        for file, node, found in self.uses.get(name, ()):
            if found is not None and member not in found:
                continue
            if file != module:
                return True
            if inside is None:
                inside = {id(n) for d in self.members[key][name] for n in ast.walk(d)}
            if id(node) not in inside:
                return True
        return False

    def unused(self) -> list[str]:
        return [
            f"{key}.{name}"
            for key, members in self.members.items()
            for name in members
            if not (name.startswith("__") and name.endswith("__")) and not self.used(key, name)
        ]


def unused_top_level(trees: dict = TREES, users: dict = USERS) -> list[str]:
    """``module.name`` for each top-level def, class or constant no user names."""
    return _unused(trees, users, _top_level)


@functools.cache
def _owners() -> Owners:
    """The resolution over :data:`TREES` and :data:`USERS`, built once."""
    return Owners(TREES, USERS)


def unused_members(trees: dict = TREES, users: dict = USERS) -> list[str]:
    """``module.Class.member`` for each non-dunder member no user reads."""
    if trees is TREES and users is USERS:
        return _owners().unused()
    return Owners(trees, users).unused()


def _edited(module: str, edit) -> dict[str, ast.Module]:
    """:data:`TREES` with a deep copy of ``module``'s tree passed through ``edit``."""
    tree = copy.deepcopy(TREES[module])
    edit(tree)
    return {**TREES, module: tree}


def _toy(source: str) -> dict[str, ast.Module]:
    """A one-module ``repro`` whose users are its own functions."""
    return {"repro.toy": ast.parse(source)}


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
            f"{key}.{name}" for key, names in _owners().members.items() for name in names
        }
        assert sorted(set(ALLOWED) - members) == []

    def test_allow_list_names_only_members_without_a_user(self):
        assert sorted(set(ALLOWED) - set(unused_members())) == []

    def test_every_allowed_entry_has_a_reason(self):
        assert [key for key, reason in ALLOWED.items() if not reason.strip()] == []


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

    @pytest.mark.parametrize(
        "user",
        [
            "def use(near: Near):\n    return near.spare()",
            "def use():\n    near = Near()\n    return near.spare()",
            "def make() -> Near:\n    return Near()\ndef use():\n    return make().spare()",
            "class Holder:\n    def __init__(self, near: Near):\n        self.near = near\n"
            "    def use(self):\n        return self.near.spare()",
            "class Closer(Near):\n    def use(self):\n        return self.spare()",
        ],
        ids=["parameter", "constructor", "return-annotation", "init-field", "self"],
    )
    def test_same_name_read_through_a_resolved_owner(self, user):
        trees = _toy(_TWO_SPARES + user)
        unused = unused_members(trees, {})
        assert "repro.toy.Far.spare" in unused
        assert "repro.toy.Near.spare" not in unused

    def test_same_name_read_through_an_unresolved_owner(self):
        trees = _toy(_TWO_SPARES + "def use(near):\n    return near.spare()")
        unused = unused_members(trees, {})
        assert "repro.toy.Far.spare" not in unused
        assert "repro.toy.Near.spare" not in unused

    def test_module_constant_never_named(self):
        trees = _toy("LIMIT = 3\nUSED: int = 4\ndef use():\n    return USED\n")
        assert "repro.toy.LIMIT" in unused_top_level(trees, {})
        assert "repro.toy.USED" not in unused_top_level(trees, {})

    def test_attribute_stored_never_read(self):
        trees = _toy(
            "class Meter:\n"
            "    def __init__(self):\n"
            "        self.count = 0\n"
            "        self.peak = 0\n"
            "    def tick(self):\n"
            "        self.count += 1\n"
            "        self.peak = max(self.peak, self.count)\n"
            "def use(meter: Meter):\n"
            "    meter.tick()\n"
            "    return meter.count\n"
        )
        unused = unused_members(trees, {})
        assert "repro.toy.Meter.peak" in unused
        assert "repro.toy.Meter.count" not in unused


_TWO_SPARES = (
    "class Near:\n    def spare(self):\n        return 0.0\n"
    "class Far:\n    def spare(self):\n        return 0.0\n"
)
