"""Span tracer that instruments ``repro`` from outside its source tree.

:func:`install` replaces chosen functions and methods with timing
wrappers, so a traced process needs no change to ``src/``.  Each wrapped
name keeps its calls, inclusive time and self time.  A coarse wrapper also
records one ``(name, start, end, parent)`` span per call, whose parent is
the enclosing coarse call; hot functions (tens of thousands of calls per
run) keep only the aggregates, which holds the tracing overhead to a few
percent.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
from typing import Any, Callable

#: Hook run after a wrapped call returns: ``(args, kwargs, result)`` to
#: counter increments.
OnReturn = Callable[[tuple, dict, Any], dict]


class Tracer:
    """Aggregated per-name timings, coarse spans and counters of one process."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # per open call: seconds spent in wrapped children
        self.names: list[str] = []  # open coarse calls, for span parents
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, children s]
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (a forked shard starts clean).

        Clears in place: every wrapper holds direct references to these
        containers.
        """
        self.stack.clear()
        self.names.clear()
        self.spans.clear()
        self.counters.clear()
        for row in self.stats.values():
            row[:] = [0, 0.0, 0.0]

    def count(self, increments: dict) -> None:
        """Add ``increments`` to the named counters."""
        for name, value in increments.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self, name: str, fn: Callable, hot: bool = False, on_return: OnReturn | None = None
    ) -> Callable:
        """``fn`` timed under ``name``; spans only when not ``hot``.

        Inclusive time would count a recursive activation twice; none of
        the wrapped functions recurses.
        """
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, names, spans = self.stack, self.names, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            if not hot:
                names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                row[0] += 1
                row[1] += elapsed
                row[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed
                if not hot:
                    names.pop()
                    spans.append((name, start, end, names[-1] if names else None))
            if on_return is not None:
                self.count(on_return(args, kwargs, result))
            return result

        return traced

    def table(self) -> dict[str, dict[str, float]]:
        """``name -> {calls, s, self_s}`` for every wrapped name."""
        return {
            name: {"calls": calls, "s": total, "self_s": total - children}
            for name, (calls, total, children) in self.stats.items()
        }


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs callbacks right after a watched module first executes."""

    def __init__(self) -> None:
        self.callbacks: dict[str, list[Callable]] = {}

    def find_spec(self, fullname, path, target=None):
        callbacks = self.callbacks.pop(fullname, None)
        if not callbacks:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            for callback in callbacks:
                callback(module)

        spec.loader.exec_module = exec_module
        return spec


def when_imported(module_name: str, callback: Callable) -> None:
    """``callback(module)`` now if the module is loaded, else once it is.

    Waiting keeps a traced command from importing layers it never uses.
    """
    module = sys.modules.get(module_name)
    if module is not None:
        callback(module)
        return
    finder = next((f for f in sys.meta_path if isinstance(f, _AfterImport)), None)
    if finder is None:
        finder = _AfterImport()
        sys.meta_path.insert(0, finder)
    finder.callbacks.setdefault(module_name, []).append(callback)


def resolve(module: Any, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) of ``qualname`` inside ``module``.

    For a class attribute the raw value comes from the class ``__dict__``,
    so a ``classmethod`` or ``staticmethod`` is seen as itself.
    """
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{module.__name__}.{qualname} is not defined on its class")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer, targets, prefix: str = "repro") -> None:
    """Wrap every target (with ``name``, ``module``, ``qualname``, ``hot``
    and ``on_return`` attributes, as :class:`layers.Fn` has).

    A target in a module not yet imported is wrapped when it is.
    Classmethods and staticmethods are rewrapped as such.  A wrapped
    module-level function is also rebound in every loaded ``prefix``
    module that imported it by name, because ``from m import f`` copies
    the reference.  Modules imported later read the wrapped attribute.
    """
    by_module: dict[str, list] = {}
    for target in targets:
        by_module.setdefault(target.module, []).append(target)
    for module_name, group in by_module.items():
        when_imported(module_name, functools.partial(_wrap, tracer, group, prefix))


def _wrap(tracer: Tracer, targets: list, prefix: str, module: Any) -> None:
    for target in targets:
        owner, attr, raw = resolve(module, target.qualname)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(
                tracer.wrap(target.name, raw.__func__, target.hot, target.on_return)
            )
        else:
            wrapped = tracer.wrap(target.name, raw, target.hot, target.on_return)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            _rebind(raw, wrapped, prefix)


def _rebind(old: Any, new: Any, prefix: str) -> None:
    """Point every module-level alias of ``old`` under ``prefix`` at ``new``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == prefix or module_name.startswith(prefix + ".")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
