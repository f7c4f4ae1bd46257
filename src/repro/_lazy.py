"""Lazy package re-exports (PEP 562).

A package ``__init__`` that imports every submodule makes ``import
repro.analysis.tables`` pay for the C4.5 tree and the whole Internet
substrate.  :func:`lazy_exports` keeps the package's public names
without the eager imports: each name is imported from its own submodule
on first access, then bound in the package namespace so later lookups
are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a submodule path relative to ``package`` to the
    names the package re-exports from it; ``__all__`` lists them in
    that order.  A name that shadows its own submodule
    (``repro.measure.tstat`` the function, not the module) is bound at
    once: importing the submodule first would otherwise leave the
    module object under that name.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def load(name: str) -> Any:
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return load(name)

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(owner))

    for module, names in exports.items():
        if module in names:
            load(module)
    return list(owner), __getattr__, __dir__
