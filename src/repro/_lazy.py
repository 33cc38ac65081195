"""Lazy package exports (PEP 562): a re-exported name loads on first use.

A package re-exports names from its submodules by handing
:func:`lazy_exports` a ``{submodule: names}`` map, instead of
importing every submodule up front::

    lazy_exports(__name__, {
        ".ring": ["HashRing"],
        ".router": ["FleetJob", "FleetRouter"],
    })

``package.HashRing`` and ``from package import HashRing`` then import
``.ring`` the first time and keep the value in the package namespace,
so later lookups are plain module lookups.  A process that never names
a layer never compiles it: a fault-free run does not load the
checkpoint stack, the TCP front end or the seismic app.  Racing
threads get the same object, because the import system runs each
submodule once.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Dict, Iterable

__all__ = ["lazy_exports"]


class _LazyPackage(types.ModuleType):
    """A package with lazy exports.  Its ``__getattr__`` and ``__dir__``
    live in its namespace (PEP 562), so attribute reads stay the
    module's own; the class only guards :meth:`__setattr__`."""

    def __setattr__(self, name: str, value) -> None:
        # importing submodule ``x`` binds it on its package as ``x``; an
        # export spelled like its own submodule (``repro.bench.pingpong``)
        # keeps the exported object, as an eager ``from .x import x`` did
        if (
            name in self._lazy_home
            and isinstance(value, types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Dict[str, Iterable[str]]) -> None:
    """Make the names in ``exports`` (relative submodule -> names) of
    the package ``package`` load on first use."""
    module = sys.modules[package]
    namespace = vars(module)
    home = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str):
        try:
            submodule = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    namespace.update(__getattr__=__getattr__, __dir__=__dir__, _lazy_home=home)
    module.__class__ = _LazyPackage
